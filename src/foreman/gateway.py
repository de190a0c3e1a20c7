"""Prompt assembly and chat-completion transport for the two LLM roles.

This is the one module that knows what an LLM sees.  Prompts are rendered
from the ``Scenario`` itself and are structured, not free-form prose:
commented blocks, key-value rosters, and explicit do/don't rules,
byte-stable for equal inputs.  The transport speaks the OpenAI-compatible
chat-completions shape; a canned mock provider keyed by (role, scenario,
iteration) makes every workflow runnable fully offline.
"""

from __future__ import annotations

import json
import logging
import math
import os
from pathlib import Path

log = logging.getLogger(__name__)

from .plan import STEP_HEAD, Plan, SchemaError, _fmt_num, parse_plan, serialize_plan
from .scenario import Scenario, cell_id
from .validator import ViolationReport


class GatewayError(Exception):
    """kind: transport | auth | rate-limit | malformed-response"""

    def __init__(self, kind: str, reason: str):
        super().__init__(f"{kind}: {reason}")
        self.kind = kind
        self.reason = reason


class LlmProfile:
    __slots__ = ("name", "role", "endpoint", "model_name", "temperature", "max_tokens", "stop_tokens",
                 "api_key_env", "seed")

    def __init__(
        self,
        name: str,
        role: str,  # "generator" | "supervisor"
        endpoint: str,
        model_name: str,
        temperature: float = 0.2,
        max_tokens: int = 1024,
        stop_tokens: tuple[str, ...] = (),
        api_key_env: str = "",
        seed: int | None = None,
    ):
        self.name = name
        self.role = role
        self.endpoint = endpoint
        self.model_name = model_name
        self.temperature = temperature
        self.max_tokens = max_tokens
        self.stop_tokens = stop_tokens
        self.api_key_env = api_key_env
        self.seed = seed

    def is_mock(self) -> bool:
        return self.endpoint.startswith("mock://")


def load_profiles(path: str | Path) -> dict[str, LlmProfile]:
    """Read a JSON object of profile name -> settings, each with an ``endpoint``;
    OSError when the file cannot be read, ValueError when it holds no such
    object or a setting has the wrong type."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: profiles must be a JSON object")
    out = {}
    for name, raw in doc.items():
        if not isinstance(raw, dict) or "endpoint" not in raw:
            raise ValueError(f"{path}: profile {name!r} must be an object with an endpoint")
        for field in ("endpoint", "role", "model_name", "api_key_env"):
            if not isinstance(raw.get(field, ""), str):
                raise ValueError(f"{path}: profile {name!r}: {field} must be a string")
        stop, seed = raw.get("stop_tokens", []), raw.get("seed")
        if not (isinstance(stop, list) and all(isinstance(t, str) for t in stop)):
            raise ValueError(f"{path}: profile {name!r}: stop_tokens must be a list of strings")
        if not (seed is None or type(seed) is int):  # a JSON true is no seed
            raise ValueError(f"{path}: profile {name!r}: seed must be an integer or null")
        temperature, max_tokens = raw.get("temperature", 0.2), raw.get("max_tokens", 1024)
        if not (type(temperature) in (int, float) and math.isfinite(temperature)):
            raise ValueError(f"{path}: profile {name!r}: temperature must be a finite number")
        if not (type(max_tokens) is int and max_tokens >= 1):
            raise ValueError(f"{path}: profile {name!r}: max_tokens must be an integer >= 1")
        out[name] = LlmProfile(
            name=name,
            role=raw.get("role", "supervisor"),
            endpoint=raw["endpoint"],
            model_name=raw.get("model_name", name),
            temperature=float(temperature),
            max_tokens=max_tokens,
            stop_tokens=tuple(stop),
            api_key_env=raw.get("api_key_env", ""),
            seed=seed,
        )
    return out


# ---------------------------------------------------------------------------
# Prompt templates
# ---------------------------------------------------------------------------

GENERATOR_RULES = (
    "respect precedence; do not duplicate actions; keep battery non-negative",
    "emit exactly one step per line in the API schema; no prose between steps",
    "charge only at a charging station; pick only at stockpiles",
)


def _section(title: str, body: str) -> str:
    return f"# --- {title} ---\n{body}\n"


def _context(s: Scenario) -> str:
    """The BACKGROUND, TASKS, ROBOTS and API SCHEMA sections both prompts share.

    A pure function of the scenario, so equal scenarios give byte-identical
    text; a line with nothing to list (no no-go zones, say) is left out.
    """
    site, cost = s.site, s.cost
    background = [f"instruction: {s.instruction}"]
    if site.is_grid():
        background.append(f"site: {site.width}x{site.height} grid")
        if site.blocked:
            background.append("blocked cells: " + ", ".join(cell_id(c) for c in sorted(site.blocked)))
    else:
        background.append("site locations: " + ", ".join(site.nodes))
        background.append("site edges (DU): " + ", ".join(f"{u}-{v}={_fmt_num(w)}" for u, v, w in sorted(site.edges)))
    if site.no_go:
        background.append("no-go zones: " + ", ".join(sorted(site.no_go)))
    if site.chargers:
        background.append("charging stations: " + ", ".join(sorted(site.chargers)))
    if s.resources:
        background.append("stockpiles (MU): " + ", ".join(f"{loc}={mu}" for loc, mu in s.resources))
    background.append(
        f"costs: battery {_fmt_num(cost.battery_per_du)}%/DU, {_fmt_num(cost.tu_per_du)} TU/DU, "
        f"pick/build {_fmt_num(cost.pick_build_tu_per_3mu)} TU per 3 MU, "
        f"recharge {_fmt_num(cost.recharge_tu)} TU, scan {_fmt_num(cost.scan_tu_per_su)} TU/SU"
    )
    if s.safety_rules:
        background.append("safety rules in force: " + ", ".join(s.safety_rules))

    tasks = []
    for t in s.tasks:
        line = f"- {t.id}: {t.type.value} at {t.location}, demand {t.demand} MU, duration {_fmt_num(t.duration)} TU"
        if t.required_skills:
            line += ", requires " + "+".join(sorted(k.value for k in t.required_skills))
        tasks.append(line)
    tasks.extend(f"- precedence: {a} before {b}" for a, b in sorted(s.dag.edges))

    robots = [
        f"- {r.id}: skills {'+'.join(sorted(k.value for k in r.skills))}; "
        f"capacity {r.payload_capacity} MU; battery {_fmt_num(r.battery_init)}/{_fmt_num(r.battery_max)}%; "
        f"start {r.start_location}; cargo {r.cargo_init} MU"
        for r in s.robots
    ]
    return "\n".join([
        _section("BACKGROUND", "\n".join(background)),
        _section("TASKS", "\n".join(tasks)),
        _section("ROBOTS", "\n".join(robots)),
        _section("API SCHEMA", "STEP, CURRENT_LOCATION, ACTION, INTERNAL_CARGO, PLACED_BRICKS, REMAINING_BATTERY"),
    ])


def build_generator_prompt(s: Scenario) -> str:
    """Deterministic generator prompt: context, roster, schema and rules."""
    rules = GENERATOR_RULES + tuple(f"honor site rule: {r}" for r in s.safety_rules)
    return "\n".join([
        "# You are the schedule Generator for a construction robot team.",
        _context(s),
        _section("RULES (do/don't)", "\n".join(f"- {r}" for r in rules)),
        "# Emit the schedule now, one step per line:",
    ])


COUNTEREXAMPLE = (
    "# counterexample (reject plans like this):\n"
    "#   STEP 5, [S], PICK, [3], 3, [25]\n"
    "#   STEP 5, [S], PICK, [3], 3, [25]   <- duplicated step index"
)


def build_supervisor_prompt(s: Scenario, draft: Plan, report: ViolationReport) -> str:
    """Supervisor prompt: draft, typed violations with fix hints, repair charter."""
    parts = [
        "# You are the schedule Supervisor. Check the draft against the scenario",
        "# and return a corrected schedule with the fewest possible edits",
        "# (substitute, reorder or insert steps; keep the original intent).",
        _context(s),
        _section("DRAFT SCHEDULE", serialize_plan(draft).rstrip("\n")),
    ]
    if report.feasible:
        parts.append(_section("VALIDATION", "no violations found; confirm the draft verbatim"))
    else:
        blocks = "\n".join(v.render() for v in report.violations)
        parts.append(_section("TYPED VIOLATIONS", blocks))
        parts.append(COUNTEREXAMPLE)
    parts.append("# Emit the corrected schedule now, one step per line:")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Response hygiene
# ---------------------------------------------------------------------------


def strip_plan_preamble(text: str) -> str:
    """Drop any prose before the first step line; idempotent."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if STEP_HEAD.match(line.strip()):
            return "\n".join(lines[i:]) + "\n"
    return text


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------


class MockProvider:
    """Serves canned responses from a manifest keyed 'role::scenario::iteration'.

    The manifest maps each key to a file name under the mocks directory; a
    manifest of another shape, or a response file that cannot be read as
    UTF-8 text, is a malformed response.
    """

    def __init__(self, mocks_dir: str | Path):
        self.mocks_dir = Path(mocks_dir)
        manifest_path = self.mocks_dir / "manifest.json"
        if not manifest_path.exists():
            raise GatewayError("malformed-response", f"no mock manifest at {manifest_path}")
        self.manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if not (isinstance(self.manifest, dict) and all(isinstance(f, str) for f in self.manifest.values())):
            raise GatewayError("malformed-response", f"{manifest_path} must map each mock key to a file name")

    def complete(self, key: tuple[str, str, int]) -> str:
        role, scenario, iteration = key
        for candidate in (f"{role}::{scenario}::{iteration}", f"{role}::{scenario}::1"):
            if candidate in self.manifest:
                path = self.mocks_dir / self.manifest[candidate]
                try:
                    return path.read_text(encoding="utf-8")
                except (OSError, ValueError) as e:  # missing, unreadable or not UTF-8
                    raise GatewayError("malformed-response", f"mock response {path}: {e}") from None
        raise GatewayError(
            "malformed-response", f"no mock response for {role}::{scenario}::{iteration}"
        )


class Gateway:
    """Stateless per call; retries once on transport failure."""

    def __init__(self, mocks_dir: str | Path | None = None):
        self._mock = MockProvider(mocks_dir) if mocks_dir is not None else None

    def complete(
        self,
        profile: LlmProfile,
        prompt: str,
        mock_key: tuple[str, str, int] | None = None,
    ) -> str:
        log.info("completion: profile=%s role=%s prompt_chars=%d", profile.name, profile.role, len(prompt))
        if profile.is_mock():
            if self._mock is None:
                raise GatewayError("malformed-response", "mock profile but no mocks directory configured")
            if mock_key is None:
                raise GatewayError("malformed-response", "mock completion requires a (role, scenario, iteration) key")
            return self._mock.complete(mock_key)
        return self._http_complete(profile, prompt)

    def _http_complete(self, profile: LlmProfile, prompt: str) -> str:
        # imported here: the HTTP stack is slow to import and offline runs never use it
        import http.client
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        if profile.api_key_env:
            key = os.environ.get(profile.api_key_env, "")
            if not key:
                raise GatewayError("auth", f"env var {profile.api_key_env} is not set")
            headers["Authorization"] = f"Bearer {key}"
        payload: dict = {
            "model": profile.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": profile.temperature,
            "max_tokens": profile.max_tokens,
        }
        if profile.stop_tokens:
            payload["stop"] = list(profile.stop_tokens)
        if profile.seed is not None:
            payload["seed"] = profile.seed
        try:
            request = urllib.request.Request(
                profile.endpoint, data=json.dumps(payload).encode("utf-8"), headers=headers, method="POST"
            )
        except ValueError as e:  # not a URL at all
            raise GatewayError("transport", f"bad endpoint {profile.endpoint!r}: {e}") from None

        last_exc: Exception | None = None
        for _ in range(2):  # one retry on transport failure
            try:
                with urllib.request.urlopen(request, timeout=60) as resp:
                    body = resp.read()
            except urllib.error.HTTPError as e:
                e.close()  # the error holds the response and its socket
                if e.code in (401, 403):
                    raise GatewayError("auth", f"endpoint returned {e.code}") from None
                if e.code == 429:
                    raise GatewayError("rate-limit", "endpoint returned 429") from None
                raise GatewayError("transport", f"endpoint returned {e.code}") from None
            except (OSError, http.client.HTTPException) as e:
                last_exc = e
                continue
            try:
                return json.loads(body)["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError, ValueError) as e:
                raise GatewayError("malformed-response", str(e)) from None
        raise GatewayError("transport", f"request failed twice: {last_exc}")


def supervise_with_llm(
    s: Scenario,
    draft: Plan,
    report: ViolationReport,
    gateway: Gateway,
    profile: LlmProfile,
    iteration: int = 1,
) -> Plan:
    """One supervisor exchange: prompt, complete, strip, parse.

    An unparseable response triggers a single re-prompt carrying the parse
    error; a second failure surfaces as SchemaError (the repair loop counts
    it as a failed iteration).
    """
    prompt = build_supervisor_prompt(s, draft, report)
    key = (profile.name, s.name, iteration)
    raw = gateway.complete(profile, prompt, mock_key=key)
    try:
        return parse_plan(strip_plan_preamble(raw))
    except SchemaError as first:
        retry_prompt = (
            prompt
            + f"\n# Your previous response failed to parse ({first}).\n"
            + "# Emit only schedule lines in the API schema, nothing else:"
        )
        raw = gateway.complete(profile, retry_prompt, mock_key=key)
        return parse_plan(strip_plan_preamble(raw))
