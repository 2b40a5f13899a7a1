"""Each query text is parsed once, locally and on a served node.

Commands resolve their texts through the session encoding's memo table
(``BasisEncoding.resolve_dependency``/``resolve_attribute``) in both
``lhs_masks`` and ``run``, so a repeated text — and every text of an
``implies_batch``, which both methods read — reaches the parser once.
Errors are never cached: a malformed text gets the same typed reply on
every repeat.
"""

import asyncio
import json

import pytest

from repro.attributes import parser as parser_module
from repro.attributes.parser import parse_subattribute
from repro.core import commands
from repro.core.session import Session
from repro.dependencies import dependency as dependency_module
from repro.dependencies.dependency import parse_dependency
from repro.serve import ReasoningServer, ServeConfig

SCHEMA = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])"
SIGMA = ["Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"]
FD = "Pubcrawl(Person) -> Pubcrawl(Visit[λ])"
MVD = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])"
NOT_IMPLIED = "Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])"
X = "Pubcrawl(Person)"

READS = [("implies", {"dependency": FD}),
         ("implies", {"dependency": MVD}),
         ("implies", {"dependency": NOT_IMPLIED}),
         ("closure", {"x": X}),
         ("basis", {"x": X}),
         ("basis", {"x": "Pubcrawl(Visit[λ])"}),
         ("implies_batch", {"dependencies": [FD, MVD, NOT_IMPLIED, FD]})]


@pytest.fixture
def parses(monkeypatch):
    """Texts handed to ``parse_dependency``/``parse_subattribute``, in order."""
    seen: list[str] = []

    def counting(parse):
        def wrapper(text, root):
            seen.append(text)
            return parse(text, root)
        return wrapper

    monkeypatch.setattr(dependency_module, "parse_dependency",
                        counting(parse_dependency))
    monkeypatch.setattr(parser_module, "parse_subattribute",
                        counting(parse_subattribute))
    return seen


def _command(op, params):
    return commands.from_wire(op, {"session": "s", **params})


def _served_order(command, session):
    """What the server does: prefetch the declared masks, then execute."""
    for mask in dict.fromkeys(command.lhs_masks(session)):
        session.result_for_mask(mask)
    return commands.execute(command, session).result


class TestLocal:
    def test_repeated_text_parses_once(self, parses):
        session = Session(SCHEMA, SIGMA)
        del parses[:]
        command = _command("implies", {"dependency": MVD})
        for _ in range(10):
            assert _served_order(command, session) == {"implied": True}
        assert parses == [MVD]

    def test_every_read_op_parses_each_text_once(self, parses):
        session = Session(SCHEMA, SIGMA)
        del parses[:]
        first = [_served_order(_command(op, params), session)
                 for op, params in READS]
        parsed_once = len(parses)
        again = [_served_order(_command(op, params), session)
                 for op, params in READS]
        assert again == first
        assert len(parses) == parsed_once
        # one dependency parse = its two sides through parse_subattribute
        dependency_texts = {FD, MVD, NOT_IMPLIED}
        assert sorted(t for t in parses if t in dependency_texts) == \
            sorted(dependency_texts)

    def test_implies_batch_parses_each_distinct_text_once(self, parses):
        session = Session(SCHEMA, SIGMA)
        del parses[:]
        command = _command(
            "implies_batch", {"dependencies": [FD, MVD, FD, NOT_IMPLIED, MVD]})
        assert len(command.lhs_masks(session)) == 1
        result = commands.execute(command, session).result
        assert result == {"verdicts": [True, True, True, False, True]}
        assert [t for t in parses if "->" in t] == [FD, MVD, NOT_IMPLIED]

    def test_edits_resolve_through_the_same_table(self, parses):
        session = Session(SCHEMA, SIGMA)
        del parses[:]
        for _ in range(3):
            commands.execute(_command("add", {"dependency": FD}),
                             session)
            commands.execute(
                _command("retract", {"dependency": FD}), session)
            commands.execute(
                _command("implies", {"dependency": FD}), session)
        assert [t for t in parses if "->" in t] == [FD]
        assert len(session) == 1

    def test_malformed_text_raises_identically_every_time(self, parses):
        session = Session(SCHEMA, SIGMA)
        for op, params in (("implies", {"dependency": "Pubcrawl(Nope) -> λ"}),
                           ("implies", {"dependency": "no arrow here"}),
                           ("closure", {"x": "Pubcrawl((("})):
            command = _command(op, params)
            errors = set()
            for _ in range(3):
                with pytest.raises(ValueError) as info:
                    _served_order(command, session)
                errors.add((type(info.value), str(info.value)))
            assert len(errors) == 1
        # only Σ's text is in the table; each bad text was parsed 3 times
        assert session.encoding.cache_info()["resolve"][2] == len(SIGMA)
        assert parses.count("no arrow here") == 3

    def test_tables_past_their_bound_answer_unchanged(self):
        unbounded = Session(SCHEMA, SIGMA)
        expected = [_served_order(_command(op, params), unbounded)
                    for op, params in READS]
        session = Session(SCHEMA, SIGMA)
        session.encoding._unary_maxsize = 2
        for _ in range(3):
            results = [_served_order(_command(op, params), session)
                       for op, params in READS]
            assert results == expected
            info = session.encoding.cache_info()
            assert info["resolve"][2] <= 2 and info["describe"][2] <= 2


def _line(request_id, op, params):
    return (json.dumps({"v": 1, "id": request_id, "op": op,
                        "params": params}, ensure_ascii=False)
            + "\n").encode("utf-8")


class TestServed:
    def _exchange(self, lines):
        async def scenario():
            async with ReasoningServer(ServeConfig()) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    replies = []
                    for line in lines:
                        writer.write(line)
                        await writer.drain()
                        replies.append(await reader.readline())
                    return replies
                finally:
                    writer.close()
                    await writer.wait_closed()
        return asyncio.run(scenario())

    def test_repeated_text_parses_once_on_a_node(self, parses):
        opening = _line(0, "open", {"name": "s", "schema": SCHEMA,
                                    "dependencies": SIGMA})
        reads = [_line(i, "implies", {"session": "s", "dependency": MVD})
                 for i in range(1, 9)]
        replies = self._exchange([opening] + reads)
        assert all(json.loads(reply)["result"] == {"implied": True}
                   for reply in replies[1:])
        assert [t for t in parses if "->" in t] == SIGMA + [MVD]

    def test_malformed_text_gets_the_identical_reply(self, parses):
        opening = _line(0, "open", {"name": "s", "schema": SCHEMA,
                                    "dependencies": SIGMA})
        bad = _line(7, "implies", {"session": "s",
                                   "dependency": "Pubcrawl(Nope) -> λ"})
        replies = self._exchange([opening, bad, bad, bad])
        assert replies[1] == replies[2] == replies[3]
        error = json.loads(replies[1])["error"]
        assert error["code"] == "bad_params"
        assert "Nope" in error["message"]
