import hashlib
import http.server
import json
import threading

import pytest

from conftest import scenario_doc
from foreman.gateway import (
    Gateway,
    GatewayError,
    LlmProfile,
    build_generator_prompt,
    build_supervisor_prompt,
    load_profiles,
    strip_plan_preamble,
    supervise_with_llm,
)
from foreman.repair import LlmSupervisor, repair_loop
from foreman.plan import SchemaError, parse_plan
from foreman.scenario import load_scenario, load_scenario_dict
from foreman.validator import ALL_CHECKS, validate


def test_generator_prompt_contains_invariant_line(wall):
    prompt = build_generator_prompt(wall)
    assert "respect precedence; do not duplicate actions; keep battery non-negative" in prompt
    assert "STEP, CURRENT_LOCATION, ACTION, INTERNAL_CARGO, PLACED_BRICKS, REMAINING_BATTERY" in prompt


def test_generator_prompt_elides_empty_few_shot(wall):
    prompt = build_generator_prompt(wall)
    assert "EXAMPLES" not in prompt


def test_prompt_determinism(wall, grid):
    for s in (wall, grid):
        assert build_generator_prompt(s) == build_generator_prompt(s)


def test_supervisor_prompt_lists_each_violation(wall, wall_draft, grid, grid_draft):
    report = validate(wall, wall_draft, ALL_CHECKS)
    prompt = build_supervisor_prompt(wall, wall_draft, report)
    for violation in report.violations:
        assert violation.render() in prompt
    assert "counterexample" in prompt
    # one typed block per violation
    assert prompt.count("[battery]") == len(report.violations)


def test_supervisor_prompt_confirms_feasible_draft(wall, wall_gemma):
    report = validate(wall, wall_gemma, ALL_CHECKS)
    prompt = build_supervisor_prompt(wall, wall_gemma, report)
    assert "no violations found" in prompt


def test_prompts_carry_the_api_schema_line(wall, wall_draft):
    schema = "# --- API SCHEMA ---\nSTEP, CURRENT_LOCATION, ACTION, INTERNAL_CARGO, PLACED_BRICKS, REMAINING_BATTERY\n"
    report = validate(wall, wall_draft, ALL_CHECKS)
    assert schema in build_generator_prompt(wall)
    assert schema in build_supervisor_prompt(wall, wall_draft, report)


def test_prompts_of_two_loads_are_identical(fix_dir, wall_draft):
    a, b = (load_scenario(fix_dir / "wall_assembly.scn.json") for _ in range(2))
    assert build_generator_prompt(a) == build_generator_prompt(b)
    report = validate(a, wall_draft, ALL_CHECKS)
    assert build_supervisor_prompt(a, wall_draft, report) == build_supervisor_prompt(b, wall_draft, report)


def test_prompts_name_no_go_zones_only_when_the_site_has_some(wall):
    assert "no-go" not in build_generator_prompt(wall)
    doc = scenario_doc("wall_assembly")
    doc["site"]["no_go"] = ["B"]
    assert "no-go zones: B\n" in build_generator_prompt(load_scenario_dict(doc, name="x"))


# SHA-256 of every prompt below, recorded before the prompt code moved from
# scenario.py into this module; a change to any byte of a prompt shows here.
_PROMPT_SHA256 = {
    "wall_assembly/generator": "caede4aae60ea0a1b9b5500b177d672118a8227bffb23f6c78a613c2f125a391",
    "wall_assembly/draft": "6659f8a463ce75ce73945b69ebfce3d9533d10104b0acb9b95b9a57d2619a2a3",
    "wall_assembly/gemma": "7f89161b0a9b259fb12c49a7d87c2049611cb2fb023abe498d918f68f8e7287c",
    "wall_assembly/llama": "71f1bcb2f71cf1d92b9a8d622d79f07be8b72195720650c5484b0726e0fa3359",
    "wall_assembly/mistral": "e9a52a45dec5e2c68c63ed77bde7477e64cbde55d41236cbb59e7a7fe86e41af",
    "scan_grid/generator": "e91147202e79f75654eafe36c902270c8cfd7a8c8ff4874241ba53e6715542b9",
    "scan_grid/draft": "364616f7be268cb1f135bdece3ff9284e52e73ced2e461c7bd5827be8771ac45",
    "scan_grid/gemma": "61b026bec0a1cce869b6b880b74b3a908cecc08c7325f14a03cfcc588aeb21ba",
    "scan_grid/llama": "37e7d905a7dde0fb0209dc6cc66364fd9a1ae0eff35c68c2892428d610f4e716",
    "scan_grid/mistral": "173785593517b6379b4a82aba57070644664fb7ed0fa3504185a5172a74bd8aa",
    "wall_assembly+no_go/generator": "77b0e26ec1cf578625079d8355a72664d77925f4a69c0095f8ec436298e8a682",
    "wall_assembly+no_go/draft": "efcc882017d5f1c83d802e7450eb5ff1ec3dd838cc1bf785fcaa2fd7f046db3f",
    "wall_assembly+no_go/gemma": "f8416be7707e4381b27cfec04a98acfbc51ebe8c32197a76882a26b85a679471",
    "wall_assembly+no_go/llama": "efd29d726ad7c4e333ee955c05d4afc7f0a469d336c63200b76a7906372f0a3b",
    "wall_assembly+no_go/mistral": "490e1e48a41c37b0a4a4062b51c9c145f98fb29d68681edc954a397fb51111d5",
}


def _prompts(fix_dir, label, s, name):
    """The generator prompt of ``s``, then the supervisor prompt of each shipped plan of ``name``."""
    yield f"{label}/generator", build_generator_prompt(s)
    for which in ("draft", "gemma", "llama", "mistral"):
        plan = parse_plan((fix_dir / "plans" / f"{name}.{which}.plan").read_text(encoding="utf-8"))
        yield f"{label}/{which}", build_supervisor_prompt(s, plan, validate(s, plan, ALL_CHECKS))


def test_prompt_bytes_are_pinned(fix_dir):
    prompts = {}
    for name in ("wall_assembly", "scan_grid"):
        prompts.update(_prompts(fix_dir, name, load_scenario(fix_dir / f"{name}.scn.json"), name))
    doc = scenario_doc("wall_assembly")
    doc["site"]["no_go"] = ["B"]
    with_nogo = load_scenario_dict(doc, name="wall_assembly")
    prompts.update(_prompts(fix_dir, "wall_assembly+no_go", with_nogo, "wall_assembly"))
    assert {k: hashlib.sha256(p.encode("utf-8")).hexdigest() for k, p in prompts.items()} == _PROMPT_SHA256


def test_strip_preamble_and_idempotence():
    text = "Sure! Here is the plan you asked for:\n\nSTEP 1, [C], IDLE, [0], 0, [100]\n"
    stripped = strip_plan_preamble(text)
    assert stripped.startswith("STEP 1")
    assert strip_plan_preamble(stripped) == stripped
    # robot-prefixed first lines survive too
    text2 = "preamble\nr1: STEP 1, [C], IDLE, [0], 0, [100]\n"
    assert strip_plan_preamble(text2).startswith("r1: STEP 1")


def test_strip_preamble_reads_a_step_head_as_the_parser_does():
    # "STEP -1," is a step line, so the parser gets to name the bad index;
    # a head with non-ASCII digits is prose, as the parser's grammar has it
    text = "Plan:\nSTEP -1, [C], IDLE, [0], 0, [100]\n"
    assert strip_plan_preamble(text) == text.split("\n", 1)[1]
    with pytest.raises(SchemaError) as exc:
        parse_plan(strip_plan_preamble(text))
    assert exc.value.reason == "step index -1 (expected 1 for robot <default>)"
    text = "STEP \u0661, [C], IDLE, [0], 0, [100]\nr1: STEP 1, [C], IDLE, [0], 0, [100]\n"
    assert strip_plan_preamble(text) == "r1: STEP 1, [C], IDLE, [0], 0, [100]\n"


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("endpoint", 5, "a string"),
        ("role", None, "a string"),
        ("model_name", ["m"], "a string"),
        ("api_key_env", 1, "a string"),
        ("stop_tokens", "END", "a list of strings"),
        ("stop_tokens", ["END", 3], "a list of strings"),
        ("seed", "7", "an integer or null"),
        ("seed", 1.5, "an integer or null"),
        ("seed", True, "an integer or null"),
        ("temperature", True, "a finite number"),
        ("temperature", "0.5", "a finite number"),
        ("temperature", float("nan"), "a finite number"),
        ("max_tokens", True, "an integer >= 1"),
        ("max_tokens", 2.7, "an integer >= 1"),
        ("max_tokens", "1024", "an integer >= 1"),
        ("max_tokens", 0, "an integer >= 1"),
    ],
)
def test_profile_fields_of_the_wrong_type_are_value_errors(tmp_path, field, value, kind):
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps({"x": {"endpoint": "mock://fixtures", field: value}}), encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_profiles(path)
    assert str(exc.value) == f"{path}: profile 'x': {field} must be {kind}"


def test_profile_stop_tokens_and_seed_load_typed(tmp_path):
    path = tmp_path / "profiles.json"
    doc = {"x": {"endpoint": "mock://fixtures", "stop_tokens": ["END"], "seed": 7}, "y": {"endpoint": "mock://f", "seed": None}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    profiles = load_profiles(path)
    assert (profiles["x"].stop_tokens, profiles["x"].seed, profiles["y"].seed) == (("END",), 7, None)


def test_mock_passthrough(fix_dir, wall, wall_draft):
    gateway = Gateway(mocks_dir=fix_dir / "mocks")
    profiles = load_profiles(fix_dir / "llm_profiles.json")
    raw = gateway.complete(profiles["gemma"], "ignored", mock_key=("gemma", "wall_assembly", 1))
    from foreman.plan import parse_plan

    plan = parse_plan(strip_plan_preamble(raw))
    assert plan == parse_plan((fix_dir / "plans" / "wall_assembly.gemma.plan").read_text())


def test_mock_missing_key_is_malformed_response(fix_dir):
    gateway = Gateway(mocks_dir=fix_dir / "mocks")
    profiles = load_profiles(fix_dir / "llm_profiles.json")
    with pytest.raises(GatewayError) as exc:
        gateway.complete(profiles["gemma"], "x", mock_key=("gemma", "nonexistent", 1))
    assert exc.value.kind == "malformed-response"


@pytest.mark.parametrize(
    "mocks, key, reason",
    [
        (False, ("gemma", "wall_assembly", 1), "mock profile but no mocks directory configured"),
        (True, None, "mock completion requires a (role, scenario, iteration) key"),
    ],
    ids=["no_mocks_dir", "no_mock_key"],
)
def test_a_mock_profile_needs_a_mocks_directory_and_a_key(fix_dir, mocks, key, reason):
    gateway = Gateway(mocks_dir=fix_dir / "mocks") if mocks else Gateway()
    profile = load_profiles(fix_dir / "llm_profiles.json")["gemma"]
    with pytest.raises(GatewayError) as exc:
        gateway.complete(profile, "x", mock_key=key)
    assert (exc.value.kind, exc.value.reason) == ("malformed-response", reason)


def test_live_profile_missing_key_is_auth_error():
    profile = LlmProfile(
        name="live", role="supervisor", endpoint="https://example.invalid/v1/chat/completions",
        model_name="m", api_key_env="DEFINITELY_NOT_SET_XYZ",
    )
    with pytest.raises(GatewayError) as exc:
        Gateway().complete(profile, "prompt")
    assert exc.value.kind == "auth"


# ---------------------------------------------------------------------------
# Live transport against a loopback stub server
# ---------------------------------------------------------------------------


def _completion(text: str) -> bytes:
    return json.dumps({"choices": [{"message": {"role": "assistant", "content": text}}]}).encode()


@pytest.fixture
def stub(monkeypatch):
    """A chat-completions stub on 127.0.0.1.

    Yields ``(profile_for, seen)``: ``profile_for(path, *answers)`` scripts the
    answers to successive POSTs on ``path`` (``(status, body)``, or None to
    drop the connection unanswered) and returns a live profile aimed at it;
    ``seen`` collects (path, JSON payload, Authorization header) per request.
    """
    answers: dict[str, list] = {}
    seen: list = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            seen.append((self.path, json.loads(body), self.headers.get("Authorization")))
            answer = answers[self.path].pop(0)
            if answer is None:
                self.close_connection = True
                return
            status, payload = answer
            self.send_response(status)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    monkeypatch.setenv("no_proxy", "*")  # loopback requests never go through a proxy
    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()

    def profile_for(path, *scripted):
        answers[path] = list(scripted)
        endpoint = f"http://127.0.0.1:{server.server_port}{path}"
        return LlmProfile(name="live", role="supervisor", endpoint=endpoint, model_name="m")

    yield profile_for, seen
    server.shutdown()
    server.server_close()
    thread.join()


def test_live_transport_returns_completion(stub, monkeypatch):
    profile_for, seen = stub
    monkeypatch.setenv("FOREMAN_STUB_KEY", "k1")
    p = profile_for("/v1/chat", (200, _completion("STEP 1")))
    profile = LlmProfile(
        p.name, p.role, p.endpoint, p.model_name, p.temperature, p.max_tokens, ("END",),
        api_key_env="FOREMAN_STUB_KEY", seed=7,
    )
    assert Gateway().complete(profile, "the prompt") == "STEP 1"
    [(path, payload, auth)] = seen
    assert path == "/v1/chat" and auth == "Bearer k1"
    assert payload["model"] == "m" and payload["seed"] == 7 and payload["stop"] == ["END"]
    assert payload["messages"] == [{"role": "user", "content": "the prompt"}]


@pytest.mark.parametrize("status, kind", [(401, "auth"), (403, "auth"), (429, "rate-limit"), (500, "transport")])
def test_live_transport_error_status_kinds(stub, status, kind):
    profile_for, seen = stub
    with pytest.raises(GatewayError) as exc:
        Gateway().complete(profile_for("/err", (status, b"{}"), (200, _completion("late"))), "p")
    assert exc.value.kind == kind
    assert len(seen) == 1  # an answered request is never retried


@pytest.mark.parametrize("body", [b"not json", b'{"choices": []}', b'["choices"]'])
def test_live_transport_malformed_body(stub, body):
    profile_for, _ = stub
    with pytest.raises(GatewayError) as exc:
        Gateway().complete(profile_for("/bad", (200, body)), "p")
    assert exc.value.kind == "malformed-response"


def test_live_transport_rejects_non_url_endpoint():
    profile = LlmProfile(name="live", role="supervisor", endpoint="chat-completions", model_name="m")
    with pytest.raises(GatewayError) as exc:
        Gateway().complete(profile, "p")
    assert exc.value.kind == "transport"


def test_live_transport_retries_dropped_connection_once(stub):
    profile_for, seen = stub
    assert Gateway().complete(profile_for("/flaky", None, (200, _completion("ok"))), "p") == "ok"
    assert len(seen) == 2


def test_live_transport_gives_up_after_one_retry(stub):
    profile_for, seen = stub
    with pytest.raises(GatewayError) as exc:
        Gateway().complete(profile_for("/down", None, None, (200, _completion("late"))), "p")
    assert exc.value.kind == "transport"
    assert len(seen) == 2


def test_supervise_with_llm_mock_roundtrip(fix_dir, wall, wall_draft, wall_gemma):
    gateway = Gateway(mocks_dir=fix_dir / "mocks")
    profiles = load_profiles(fix_dir / "llm_profiles.json")
    report = validate(wall, wall_draft, ALL_CHECKS)
    plan = supervise_with_llm(wall, wall_draft, report, gateway, profiles["gemma"])
    assert plan == wall_gemma


def test_unparseable_mock_twice_surfaces_schema_error(tmp_path, wall, wall_draft):
    mocks = tmp_path / "mocks"
    mocks.mkdir()
    (mocks / "prose.txt").write_text("I am terribly sorry, I cannot help with schedules.\n")
    (mocks / "manifest.json").write_text(json.dumps({"chatty::wall_assembly::1": "prose.txt"}))
    gateway = Gateway(mocks_dir=mocks)
    profile = LlmProfile(name="chatty", role="supervisor", endpoint="mock://x", model_name="m")
    report = validate(wall, wall_draft, ALL_CHECKS)
    from foreman.plan import SchemaError

    with pytest.raises(SchemaError):
        supervise_with_llm(wall, wall_draft, report, gateway, profile)
    # inside the loop the failure counts as a spent iteration, never a crash
    supervisor = LlmSupervisor(gateway, profile)
    result = repair_loop(wall, wall_draft, supervisor, max_iters=2)
    assert not result.feasible
    assert result.iterations_used == 2


def test_llm_supervised_repair_loop_all_three(fix_dir, wall, grid, wall_draft, grid_draft):
    gateway = Gateway(mocks_dir=fix_dir / "mocks")
    profiles = load_profiles(fix_dir / "llm_profiles.json")
    for scen, draft in [(wall, wall_draft), (grid, grid_draft)]:
        for sup_name in ("gemma", "llama", "mistral"):
            supervisor = LlmSupervisor(gateway, profiles[sup_name])
            result = repair_loop(scen, draft, supervisor, max_iters=3)
            assert result.feasible, (scen.name, sup_name)
            assert result.iterations_used == 1


def test_generator_temperature_default_low(fix_dir):
    profiles = load_profiles(fix_dir / "llm_profiles.json")
    assert profiles["generator"].temperature <= 0.2
