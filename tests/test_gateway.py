import http.server
import json
import threading
from dataclasses import replace

import pytest

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
from foreman.scenario import canonical_context
from foreman.validator import ALL_CHECKS, validate


def test_generator_prompt_contains_invariant_line(wall):
    prompt = build_generator_prompt(canonical_context(wall))
    assert "respect precedence; do not duplicate actions; keep battery non-negative" in prompt
    assert "STEP, CURRENT_LOCATION, ACTION, INTERNAL_CARGO, PLACED_BRICKS, REMAINING_BATTERY" in prompt


def test_generator_prompt_elides_empty_few_shot(wall):
    ctx = canonical_context(wall)
    prompt = build_generator_prompt(ctx)
    assert "EXAMPLES" not in prompt


def test_prompt_determinism(wall, grid):
    for s in (wall, grid):
        ctx = canonical_context(s)
        assert build_generator_prompt(ctx) == build_generator_prompt(ctx)


def test_supervisor_prompt_lists_each_violation(wall, wall_draft, grid, grid_draft):
    report = validate(wall, wall_draft, ALL_CHECKS)
    prompt = build_supervisor_prompt(canonical_context(wall), wall_draft, report)
    for violation in report.violations:
        assert violation.render() in prompt
    assert "counterexample" in prompt
    # one typed block per violation
    assert prompt.count("[battery]") == len(report.violations)


def test_supervisor_prompt_confirms_feasible_draft(wall, wall_gemma):
    report = validate(wall, wall_gemma, ALL_CHECKS)
    prompt = build_supervisor_prompt(canonical_context(wall), wall_gemma, report)
    assert "no violations found" in prompt


def test_strip_preamble_and_idempotence():
    text = "Sure! Here is the plan you asked for:\n\nSTEP 1, [C], IDLE, [0], 0, [100]\n"
    stripped = strip_plan_preamble(text)
    assert stripped.startswith("STEP 1")
    assert strip_plan_preamble(stripped) == stripped
    # robot-prefixed first lines survive too
    text2 = "preamble\nr1: STEP 1, [C], IDLE, [0], 0, [100]\n"
    assert strip_plan_preamble(text2).startswith("r1: STEP 1")


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
    profile = replace(profile_for("/v1/chat", (200, _completion("STEP 1"))), api_key_env="FOREMAN_STUB_KEY", seed=7)
    assert Gateway().complete(profile, "the prompt") == "STEP 1"
    [(path, payload, auth)] = seen
    assert path == "/v1/chat" and auth == "Bearer k1"
    assert payload["model"] == "m" and payload["seed"] == 7
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
    plan = supervise_with_llm(wall, wall_draft, report, gateway, profiles["gemma"], "wall_assembly")
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
        supervise_with_llm(wall, wall_draft, report, gateway, profile, "wall_assembly")
    # inside the loop the failure counts as a spent iteration, never a crash
    supervisor = LlmSupervisor(gateway, profile, "wall_assembly")
    result = repair_loop(wall, wall_draft, supervisor, max_iters=2)
    assert not result.feasible
    assert result.iterations_used == 2


def test_llm_supervised_repair_loop_all_three(fix_dir, wall, grid, wall_draft, grid_draft):
    gateway = Gateway(mocks_dir=fix_dir / "mocks")
    profiles = load_profiles(fix_dir / "llm_profiles.json")
    for scen, draft, name in [(wall, wall_draft, "wall_assembly"), (grid, grid_draft, "scan_grid")]:
        for sup_name in ("gemma", "llama", "mistral"):
            supervisor = LlmSupervisor(gateway, profiles[sup_name], name)
            result = repair_loop(scen, draft, supervisor, max_iters=3)
            assert result.feasible, (name, sup_name)
            assert result.iterations_used == 1


def test_generator_temperature_default_low(fix_dir):
    profiles = load_profiles(fix_dir / "llm_profiles.json")
    assert profiles["generator"].temperature <= 0.2
