#pragma once
// BLIF reader/writer for combinational networks (.model/.inputs/.outputs/
// .names/.end, with '\' line continuations). This is the interchange format
// of the MCNC benchmark suite the paper evaluates on.

#include <stdexcept>
#include <string>

#include "network/network.hpp"

namespace bdsmaj::net {

/// Malformed-BLIF diagnostic. Every parse failure — truncated file,
/// undeclared signal, duplicate driver/input/output, cube arity mismatch,
/// bad cube characters, unsupported constructs — raises this with the
/// 1-based source line it was detected on (the first physical line of a
/// '\'-continued logical line), never UB or an assert.
class ParseError : public std::runtime_error {
public:
    ParseError(int line, const std::string& message)
        : std::runtime_error("blif line " + std::to_string(line) + ": " + message),
          line_(line) {}
    [[nodiscard]] int line() const noexcept { return line_; }

private:
    int line_;
};

/// Parse a BLIF document. Only combinational constructs are accepted;
/// `.latch`, `.subckt` and `.gate` — and any malformed input — raise
/// ParseError carrying the offending line number. Besides the defects
/// above, a signal both declared in `.inputs` and driven by a `.names`
/// block is rejected in either order, and an off-set (output `0`) cover
/// wider than tt::TruthTable::kMaxVars inputs is a diagnosed limit.
///
/// Node order: the primary inputs in declaration order, then each
/// `.names` block once all its fanins are bound, sweeping the blocks in
/// file order again and again — block i lands in sweep
/// s(i) = max(1, max over fanin blocks j of s(j) + [j >= i]), and blocks
/// of one sweep keep file order. A document in dependency order is one
/// sweep, so its node ids follow the file. Parsing takes one pass over the
/// text and time linear in its size, blocks out of order included, apart
/// from complementing an off-set (output `0`) cover, which builds a truth
/// table of 2^inputs bits for that block.
[[nodiscard]] Network parse_blif(const std::string& text);

/// Serialize to BLIF. Structured gates are emitted as equivalent `.names`
/// covers so any BLIF consumer can read the result.
[[nodiscard]] std::string write_blif(const Network& network);

/// File helpers.
[[nodiscard]] Network read_blif_file(const std::string& path);
void write_blif_file(const Network& network, const std::string& path);

}  // namespace bdsmaj::net
