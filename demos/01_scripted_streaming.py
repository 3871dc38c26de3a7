"""Streaming tokens from the deterministic scripted backend.

The scripted model is the offline stand-in for a chat-completions server:
entries pair a context-suffix trigger with a whitespace-tokenized emission.
Each token is one unit of the emission with the space that follows it, so
the tokens concatenate to the text, as a wire backend's deltas do.
A stream yields its token texts, and ``stream.cause`` says why it ended,
one of three causes: the watched stop marker was emitted, the token cap
was reached, or the backend stopped on its own.
"""

from thinkctl import GenerationRequest, ScriptEntry, ScriptedModel, stream_generate

model = ScriptedModel(
    (
        ScriptEntry(trigger="poem", emission="roses are red violets are blue", terminal_marker="<done>"),
        ScriptEntry(trigger="", emission="I only know one poem"),
    )
)

# 1. a stream that ends because the model emitted its terminal marker
stream = stream_generate(model, GenerationRequest("write me a poem", max_new_tokens=50, stop_on="<done>"))
for i, text in enumerate(stream):
    print(f"  token[{i}] = {text!r}")
print("cause:", stream.cause)

# 2. the same request with a tight cap: the stream is cut mid-emission
stream = stream_generate(model, GenerationRequest("write me a poem", max_new_tokens=3, stop_on="<done>"))
print("capped tokens:", list(stream), "cause:", stream.cause)

# 3. an unmatched trigger falls through to the catch-all entry, and with no
#    marker in sight the backend simply stops
stream = stream_generate(model, GenerationRequest("say anything", max_new_tokens=50, stop_on="<done>"))
print("fallback tokens:", list(stream), "cause:", stream.cause)

# 4. markers are detected in the concatenated text, so they may arrive split
#    across tokens and are never delivered to the consumer
model2 = ScriptedModel((ScriptEntry("", "thinking hard END OF THOUGHT leftover"),))
stream = stream_generate(model2, GenerationRequest("go", max_new_tokens=50, stop_on="END OF THOUGHT"))
print("clean tokens:", list(stream), "cause:", stream.cause)
