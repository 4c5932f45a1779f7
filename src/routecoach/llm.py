"""Chat-completion clients: a real HTTP endpoint and a scripted mock.

Both expose ``complete(prompt) -> CompletionResult``.  The HTTP client
speaks the common chat-completion wire format (single user message) and
retries transient failures with exponential backoff.  The mock replays
numbered text files from a directory, which keeps every test and report
that needs "model output" fully offline and deterministic.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol

from .prompts import count_tokens

ENV_BASE_URL = "ROUTECOACH_LLM_BASE_URL"
ENV_API_KEY = "ROUTECOACH_LLM_API_KEY"
ENV_MODEL = "ROUTECOACH_LLM_MODEL"
ENV_TIMEOUT = "ROUTECOACH_LLM_TIMEOUT"

MAX_ATTEMPTS = 3
BACKOFF_BASE_SECONDS = 1.0
TEMPERATURE = 0.2  # the sampling temperature of a request, unless configured


class LlmError(RuntimeError):
    """Endpoint still failing after the bounded retries."""


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    api_key: str = ""
    model: str = "gpt-3.5-turbo"
    timeout: float = 30.0
    temperature: float = TEMPERATURE

    @classmethod
    def from_env(cls) -> "EndpointConfig":
        base_url = os.environ.get(ENV_BASE_URL, "").strip()
        if not base_url:
            raise LlmError(f"{ENV_BASE_URL} is not set; configure the endpoint or use the mock")
        timeout = os.environ.get(ENV_TIMEOUT, str(cls.timeout))
        try:
            seconds = float(timeout)
        except ValueError:
            seconds = math.nan
        if not 0 < seconds < math.inf:
            raise LlmError(f"{ENV_TIMEOUT} must be a positive, finite number of seconds, got {timeout!r}")
        return cls(
            base_url=base_url,
            api_key=os.environ.get(ENV_API_KEY, ""),
            model=os.environ.get(ENV_MODEL, cls.model),
            timeout=seconds,
        )


@dataclass(frozen=True)
class CompletionResult:
    text: str
    token_count: int  # endpoint-reported when available, else whitespace chunks


class ChatCompleter(Protocol):
    def complete(self, prompt: str) -> CompletionResult: ...


class HttpChatCompleter:
    def __init__(self, config: EndpointConfig, *, sleep: Callable[[float], None] = time.sleep):
        self.config = config
        self._sleep = sleep

    def complete(self, prompt: str) -> CompletionResult:
        import requests  # only this endpoint needs it, and it loads hundreds of modules

        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
        }
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        last_error: Exception | None = None
        for attempt in range(MAX_ATTEMPTS):
            try:
                response = requests.post(url, json=payload, headers=headers, timeout=self.config.timeout)
                response.raise_for_status()
                doc = response.json()
                try:
                    text = doc["choices"][0]["message"]["content"]
                except (KeyError, IndexError, TypeError):  # not the wire format's nesting of objects and lists
                    text = None
                if not isinstance(text, str):
                    raise ValueError("malformed completion body: no string at choices[0].message.content")
                usage = doc.get("usage")
                tokens = usage.get("total_tokens") if isinstance(usage, dict) else None
                if type(tokens) is not int or tokens < 0:  # missing or unusable: count the text instead
                    tokens = count_tokens(prompt) + count_tokens(text)
                return CompletionResult(text=text, token_count=tokens)
            except (requests.RequestException, ValueError) as exc:
                last_error = exc
                if attempt < MAX_ATTEMPTS - 1:
                    self._sleep(BACKOFF_BASE_SECONDS * 2**attempt)
        raise LlmError(f"chat endpoint failed after {MAX_ATTEMPTS} attempts: {last_error}") from last_error


class MockChatCompleter:
    """Replays numbered ``*.txt`` files from a directory, in sorted order.

    Once the scripts run out the last one repeats, so long runs stay
    deterministic without having to count regeneration events up front.
    A refined prompt extends the last one (its prefix of the last one's length
    has the same ``hash``), so only its new text is counted.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._files = sorted(self.directory.glob("*.txt"))
        if not self._files:
            raise LlmError(f"mock directory {self.directory} has no .txt scripts")
        self._cursor = 0
        self._last = 0, 0, 0  # the last prompt's length, token count and hash

    def complete(self, prompt: str) -> CompletionResult:
        path = self._files[min(self._cursor, len(self._files) - 1)]
        self._cursor += 1
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:  # fails as a failing endpoint does, so a run falls back
            raise LlmError(f"cannot read mock script {path}: {exc}") from exc
        size, tokens, digest = self._last
        if 0 < size <= len(prompt) and hash(prompt[:size]) == digest:
            # count on from the last prompt's final character, whose chunk is counted unless it is whitespace
            tokens += count_tokens(prompt[size - 1:]) - (not prompt[size - 1].isspace())
        else:
            tokens = count_tokens(prompt)
        self._last = len(prompt), tokens, hash(prompt)
        return CompletionResult(text=text, token_count=tokens + count_tokens(text))
