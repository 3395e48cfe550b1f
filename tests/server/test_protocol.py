"""Protocol-layer tests: schema round-trips, error taxonomy, HTTP subset.

The acceptance bar: every way a request can be refused has a typed code
from ``ERROR_CODES``, and a valid request survives
``from_dict(to_dict())`` *exactly* -- hypothesis drives both.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.protocol import (
    ERROR_CODES,
    CampaignRequest,
    MeshSpec,
    ProtocolError,
    ScenarioSpec,
    canonical_json,
    format_http_response,
    parse_http_request,
    sha256_hex,
    split_hold,
)
from repro.server.protocol import MAX_HOLD_S

# ---------------------------------------------------------------------------
# hypothesis strategies for valid requests
# ---------------------------------------------------------------------------

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)
positive = st.floats(
    allow_nan=False, allow_infinity=False, min_value=1e-9, max_value=1e6
)

mesh_specs = st.builds(
    MeshSpec,
    nx=st.integers(1, 8),
    ny=st.integers(1, 8),
    nz=st.integers(1, 8),
    lengths=st.tuples(positive, positive, positive),
)

scenario_specs = st.builds(
    ScenarioSpec,
    density=positive,
    viscosity=positive,
    body_force=st.tuples(finite, finite, finite),
    vreman_c=st.one_of(
        st.none(),
        st.floats(allow_nan=False, allow_infinity=False,
                  min_value=0.0, max_value=10.0),
    ),
)

requests = st.builds(
    CampaignRequest,
    kind=st.sampled_from(["assemble", "batch", "campaign"]),
    mesh=mesh_specs,
    scenarios=st.lists(scenario_specs, min_size=1, max_size=4).map(tuple),
    variant=st.sampled_from(["RSP", "RS", "B"]),
    mode=st.sampled_from(["codegen", "compiled", "interpreted", "reference"]),
    steps=st.integers(1, 50),
    dt=st.one_of(st.none(), positive),
    velocity_seed=st.integers(-(2**31), 2**31 - 1),
    vector_dim=st.one_of(st.none(), st.integers(1, 4096)),
    tenant=st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=1, max_size=16,
    ),
    deadline_ms=st.one_of(st.none(), positive),
    return_field=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(requests)
def test_request_round_trips_exactly(req):
    """to_dict -> JSON -> from_dict reproduces the request dataclass."""
    wire = json.loads(json.dumps(req.to_dict()))
    back = CampaignRequest.from_dict(wire)
    assert back == req
    # and the content key is stable across the round trip
    assert back.content_key() == req.content_key()


@settings(max_examples=30, deadline=None)
@given(requests, st.text(min_size=1, max_size=16), st.one_of(st.none(), positive))
def test_content_key_ignores_identity_fields(req, tenant, deadline_ms):
    """Same physics from another tenant/deadline coalesces to one key."""
    data = req.to_dict()
    data["tenant"] = "tenant-" + "".join(c for c in tenant if c.isalnum())[:8] or "t"
    data.pop("deadline_ms", None)
    if deadline_ms is not None:
        data["deadline_ms"] = deadline_ms
    try:
        other = CampaignRequest.from_dict(data)
    except ProtocolError:
        return  # degenerate tenant string; identity fields still strict
    assert other.content_key() == req.content_key()


def test_content_key_sensitive_to_physics():
    base = {"kind": "assemble", "mesh": {"nx": 2, "ny": 2, "nz": 2}}
    a = CampaignRequest.from_dict(base)
    b = CampaignRequest.from_dict({**base, "velocity_seed": 1})
    c = CampaignRequest.from_dict({**base, "variant": "B"})
    assert len({a.content_key(), b.content_key(), c.content_key()}) == 3


# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------

def test_error_codes_complete_and_mapped_to_http():
    assert set(ERROR_CODES) == {
        "malformed", "not_found", "quota_exceeded", "shed", "draining",
        "breaker_open", "deadline_exceeded", "internal",
    }
    for code, status in ERROR_CODES.items():
        assert 400 <= status <= 599, code


def test_protocol_error_rejects_untyped_codes():
    with pytest.raises(ValueError):
        ProtocolError("something_new", "boom")


@pytest.mark.parametrize(
    "payload",
    [
        b"not json at all",
        b"[1, 2, 3]",
        b'{"mesh": {"nx": 2, "ny": 2, "nz": 2}}',       # missing kind
        b'{"kind": "assemble"}',                          # missing mesh
        b'{"kind": "explode", "mesh": {"nx": 2, "ny": 2, "nz": 2}}',
        b'{"kind": "assemble", "mesh": {"nx": 0, "ny": 2, "nz": 2}}',
        b'{"kind": "assemble", "mesh": {"nx": 2, "ny": 2, "nz": 2}, "mode": "gpu"}',
        b'{"kind": "assemble", "mesh": {"nx": 2, "ny": 2, "nz": 2}, "scenarios": []}',
        b'{"kind": "assemble", "mesh": {"nx": 2, "ny": 2, "nz": 2}, "surprise": 1}',
        b'{"kind": "campaign", "mesh": {"nx": 2, "ny": 2, "nz": 2}}',  # steps=0
        b'{"kind": "assemble", "mesh": {"nx": 2, "ny": 2, "nz": 2}, "dt": -1.0}',
        b'{"kind": "assemble", "mesh": {"nx": 2, "ny": 2, "nz": 2}, "deadline_ms": 0}',
    ],
)
def test_invalid_requests_raise_typed_malformed(payload):
    with pytest.raises(ProtocolError) as err:
        CampaignRequest.from_json(payload)
    assert err.value.code == "malformed"
    assert err.value.status == 400


def test_oversized_mesh_rejected():
    with pytest.raises(ProtocolError) as err:
        MeshSpec.from_dict({"nx": 100, "ny": 100, "nz": 100})
    assert err.value.code == "malformed"


# ---------------------------------------------------------------------------
# HTTP subset
# ---------------------------------------------------------------------------

def test_parse_http_request_happy_path():
    head = (
        b"POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\r\n"
    )
    method, path, headers = parse_http_request(head)
    assert (method, path) == ("POST", "/submit")
    assert headers["content-length"] == "12"


@pytest.mark.parametrize(
    "head",
    [
        b"GARBAGE\r\n\r\n",
        b"GET /x SPDY/9\r\n\r\n",
        b"GET /x HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n",
        b"GET /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        b"GET /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"GET /x HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n",
    ],
)
def test_parse_http_request_garbage_is_typed_malformed(head):
    with pytest.raises(ProtocolError) as err:
        parse_http_request(head)
    assert err.value.code == "malformed"


#: what a client, a fuzzer or a typo puts after ``?``
QUERIES = st.one_of(
    st.sampled_from(["", "wait", "wait=", "wait=nan", "wait=inf", "wait=-1", "wait=1e309",
                     "wait=-0.0", "wait=0", "wait=0.02", "wait=1e300", "wait=1&wait=2",
                     "wait=1&x=2", "hold=1", "WAIT=1", "=1", "wait==1", "wait=1?wait=2"]),
    st.text(max_size=12),
    st.floats().map(lambda v: f"wait={v!r}"),
)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(["/submit", "/jobs/job-000001/result", "/", ""]), query=QUERIES)
def test_hold_query_is_a_clamped_wait_or_typed_malformed(path, query):
    assert split_hold(path) == (path, None)
    try:
        got, wait = split_hold(f"{path}?{query}")
    except ProtocolError as exc:
        assert exc.code == "malformed"
        return
    assert got == path and 0.0 <= wait <= MAX_HOLD_S
    assert query.startswith("wait=") and wait == min(float(query[5:]), MAX_HOLD_S)


def test_format_http_response_shape():
    raw = format_http_response(429, {"error": "shed"}, retry_after=1.5)
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 429 ")
    assert b"Retry-After: 1.500" in head
    assert json.loads(body) == {"error": "shed"}


def test_json_floats_round_trip_bitwise():
    """Python json emits repr-exact floats: the wire is lossless."""
    import struct

    values = [0.1, 1e-17, 2.0 / 3.0, 6.02e23, -1.2345678901234567e-8]
    wire = json.loads(json.dumps(values))
    assert [struct.pack("<d", v) for v in wire] == [
        struct.pack("<d", v) for v in values
    ]


def test_canonical_json_stable():
    a = canonical_json({"b": 1, "a": [1.5, {"y": 2, "x": 3}]})
    b = canonical_json({"a": [1.5, {"x": 3, "y": 2}], "b": 1})
    assert a == b
    assert sha256_hex(a) == sha256_hex(b)


# ---------------------------------------------------------------------------
# non-finite numbers: malformed at the door, never a rung failure
# ---------------------------------------------------------------------------

#: every float a request carries, as a path into its JSON object
NUMERIC_FIELDS = [
    ("dt",), ("deadline_ms",), ("mesh", "lengths", 0), ("mesh", "lengths", 2),
    ("scenarios", 0, "density"), ("scenarios", 0, "viscosity"),
    ("scenarios", 0, "body_force", 1), ("scenarios", 0, "vreman_c"),
]
#: JSON token -> the value a caller of ``from_dict`` would hand over
NON_FINITE = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf, "1e400": math.inf,
              "-1e400": -math.inf, "1" + "0" * 400: 10**400}


def _with_token(path, token):
    """A valid request's JSON with the number at ``path`` replaced by the
    literal ``token`` (``json.dumps`` cannot write ``1e400``)."""
    data = {
        "kind": "campaign", "mesh": {"nx": 2, "ny": 2, "nz": 2, "lengths": [1.0, 1.0, 1.0]},
        "scenarios": [{"density": 1.0, "viscosity": 1e-3, "body_force": [0.0, 0.0, 0.0],
                       "vreman_c": 0.1}],
        "steps": 1, "dt": 1e-3, "deadline_ms": 1000.0,
    }
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@TOKEN@"
    return json.dumps(data).replace('"@TOKEN@"', token).encode()


@settings(max_examples=60, deadline=None)
@given(path=st.sampled_from(NUMERIC_FIELDS), token=st.sampled_from(sorted(NON_FINITE)))
def test_non_finite_numbers_are_malformed(path, token):
    """``NaN``, ``+-Infinity`` and literals past float range, in every
    numeric field, over the wire and through ``from_dict``: a typed
    ``malformed``, never a request that reaches an executor."""
    CampaignRequest.from_json(_with_token(path, "0.5"))  # the request itself is fine
    with pytest.raises(ProtocolError) as err:
        CampaignRequest.from_json(_with_token(path, token))
    assert err.value.code == "malformed"
    data = json.loads(_with_token(path, "0.5"))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = NON_FINITE[token]
    with pytest.raises(ProtocolError) as err:
        CampaignRequest.from_dict(data)
    assert err.value.code == "malformed"


def test_an_integer_past_the_parsers_digit_limit_is_malformed():
    with pytest.raises(ProtocolError) as err:
        CampaignRequest.from_json(
            b'{"kind": "assemble", "mesh": {"nx": 2, "ny": 2, "nz": 2}, "steps": '
            + b"1" * 5000 + b"}"
        )
    assert err.value.code == "malformed"
