#include "network/blif.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace bdsmaj::net {

namespace {

constexpr std::size_t kNpos = std::string_view::npos;

/// The characters `>>` splits on: isspace() in the "C" locale.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// One physical line without its comment ('#' onward), trailing blanks
/// and closing '\' continuation marker.
struct Physical {
    std::string_view body;
    bool continues = false;
};

/// Reads the physical line starting at `pos` and moves `pos` past it.
Physical read_physical(std::string_view text, std::size_t& pos) {
    const std::size_t newline = text.find('\n', pos);
    const std::size_t end = newline == kNpos ? text.size() : newline;
    std::string_view body = text.substr(pos, end - pos);
    pos = newline == kNpos ? text.size() : newline + 1;
    body = body.substr(0, body.find('#'));
    while (!body.empty() && (body.back() == '\r' || body.back() == ' ' || body.back() == '\t')) {
        body.remove_suffix(1);
    }
    const bool continues = !body.empty() && body.back() == '\\';
    if (continues) body.remove_suffix(1);
    return {body, continues};
}

/// A '\' continuation still open at the end of the text means a truncated
/// document. It is checked before anything else is parsed, so it outranks
/// every other diagnostic, even one after `.end`. Only the tail is read:
/// the last physical line and any continued lines right before it.
void reject_open_continuation(std::string_view text) {
    std::size_t end = text.size();  // the '\n' ending the line, or the text end
    if (end > 0 && text[end - 1] == '\n') --end;
    std::size_t open = kNpos;
    for (;;) {
        const std::size_t newline = end == 0 ? kNpos : text.rfind('\n', end - 1);
        const std::size_t start = newline == kNpos ? 0 : newline + 1;
        std::size_t pos = start;
        if (!read_physical(text, pos).continues) break;
        open = start;
        if (start == 0) break;
        end = start - 1;
    }
    if (open != kNpos) {
        const auto line = 1 + std::count(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(open), '\n');
        throw ParseError(static_cast<int>(line),
                         "truncated file: '\\' continuation at end of input");
    }
}

/// Logical lines: '\' continuations joined, comments stripped. Tokens view
/// the text itself; a continued line is only spelled out as one string
/// when a diagnostic quotes it.
class LogicalLines {
public:
    explicit LogicalLines(std::string_view text) : text_(text) {}

    /// Advances to the next line that has tokens; false at the end.
    bool next() {
        tokens_.clear();
        while (tokens_.empty() && pos_ < text_.size()) {
            start_ = pos_;
            line_ = physical_ + 1;
            Physical piece;
            do {
                ++physical_;
                piece = read_physical(text_, pos_);
                split(piece.body);
            } while (piece.continues && pos_ < text_.size());
        }
        return !tokens_.empty();
    }

    [[nodiscard]] const std::vector<std::string_view>& tokens() const { return tokens_; }
    /// 1-based number of the line's first physical line.
    [[nodiscard]] int line() const { return line_; }

    /// The line with its continuations joined by a space.
    [[nodiscard]] std::string joined() const {
        std::string out;
        std::size_t pos = start_;
        for (;;) {
            const Physical piece = read_physical(text_, pos);
            out += piece.body;
            if (!piece.continues || pos >= text_.size()) return out;
            out += ' ';
        }
    }

private:
    void split(std::string_view s) {
        std::size_t i = 0;
        for (;;) {
            while (i < s.size() && is_space(s[i])) ++i;
            if (i == s.size()) return;
            const std::size_t begin = i;
            while (i < s.size() && !is_space(s[i])) ++i;
            tokens_.push_back(s.substr(begin, i - begin));
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t start_ = 0;  // offset of the current line's first physical line
    int physical_ = 0;
    int line_ = 0;
    std::vector<std::string_view> tokens_;
};

/// One signal name. Until blocks are placed only primary inputs are bound.
struct Symbol {
    std::string_view name;
    NodeId node = kNoNode;    // bound node: the input's, or its placed driver's
    std::int32_t block = -1;  // index of the driving .names block
    bool output = false;      // declared by .outputs
};

/// One .names block; its signals and cube patterns are ranges of the
/// document's flat vectors.
struct Block {
    std::uint32_t first_signal = 0;  // fanins, then the target
    std::uint32_t arity = 0;
    std::uint32_t first_cube = 0;
    std::uint32_t cube_count = 0;
    int line = 0;  // the .names directive's source line
    char phase = '1';  // output column of the cubes
    bool mixed_phase = false;
};

struct Document {
    std::unordered_map<std::string_view, std::uint32_t> index;
    std::vector<Symbol> symbols;
    std::vector<std::uint32_t> signals;   // symbol ids, block by block
    std::vector<std::string_view> cubes;  // input patterns, block by block
    std::vector<Block> blocks;
    std::vector<std::pair<std::uint32_t, int>> outputs;  // symbol, line

    std::uint32_t intern(std::string_view name) {
        const auto [it, fresh] =
            index.try_emplace(name, static_cast<std::uint32_t>(symbols.size()));
        if (fresh) symbols.push_back({name});
        return it->second;
    }
    [[nodiscard]] Symbol& signal(const Block& b, std::uint32_t k) {
        return symbols[signals[b.first_signal + k]];
    }
    [[nodiscard]] Symbol& target(const Block& b) { return signal(b, b.arity); }
};

constexpr std::uint32_t kUnvisited = 0;
constexpr std::uint32_t kOnStack = 0xfffffffe;
constexpr std::uint32_t kNever = 0xffffffff;

/// Node order. A block is placed once all its fanins are bound, sweeping
/// the blocks in file order until a sweep places none: block i lands in
/// sweep s(i) = max(1, max over fanin blocks j of s(j) + [j >= i]), and
/// within a sweep in file order. One iterative DFS computes s (kNever for
/// a block with an undeclared fanin, on a cycle or behind one); the result
/// lists the placeable blocks by (s, index).
std::vector<std::uint32_t> placement_order(Document& doc, std::vector<std::uint32_t>& sweep) {
    sweep.assign(doc.blocks.size(), kUnvisited);
    struct Frame {
        std::uint32_t block;
        std::uint32_t next_fanin;
        std::uint32_t sweep;
    };
    // The sweep of `f` given fanin block j in sweep sj.
    const auto after = [](const Frame& f, std::uint32_t j, std::uint32_t sj) {
        if (f.sweep == kNever || sj >= kOnStack) return kNever;
        return std::max(f.sweep, sj + (j >= f.block ? 1U : 0U));
    };
    std::vector<Frame> stack;
    for (std::uint32_t root = 0; root < doc.blocks.size(); ++root) {
        if (sweep[root] != kUnvisited) continue;
        sweep[root] = kOnStack;
        stack.push_back({root, 0, 1});
        while (!stack.empty()) {
            Frame& top = stack.back();
            const Block& b = doc.blocks[top.block];
            if (top.sweep != kNever && top.next_fanin < b.arity) {
                const Symbol& s = doc.signal(b, top.next_fanin++);
                if (s.node != kNoNode) continue;  // a primary input
                if (s.block < 0) {
                    top.sweep = kNever;  // undeclared
                    continue;
                }
                const auto j = static_cast<std::uint32_t>(s.block);
                if (sweep[j] == kUnvisited) {
                    sweep[j] = kOnStack;
                    stack.push_back({j, 0, 1});
                } else {
                    top.sweep = after(top, j, sweep[j]);
                }
                continue;
            }
            const Frame done = top;
            stack.pop_back();
            sweep[done.block] = done.sweep;
            if (!stack.empty()) {
                stack.back().sweep = after(stack.back(), done.block, done.sweep);
            }
        }
    }
    // Counting sort by sweep (at most one sweep per block), keeping file
    // order within a sweep.
    std::vector<std::uint32_t> first(doc.blocks.size() + 2, 0);
    for (const std::uint32_t s : sweep) {
        if (s != kNever) ++first[s + 1];
    }
    for (std::size_t s = 1; s < first.size(); ++s) first[s] += first[s - 1];
    std::vector<std::uint32_t> order(first.back());
    for (std::uint32_t i = 0; i < doc.blocks.size(); ++i) {
        if (sweep[i] != kNever) order[first[sweep[i]]++] = i;
    }
    return order;
}

/// Adds the node of block `b`, whose fanins are all bound, and binds its
/// target to it.
void place(Document& doc, const Block& b, Network& network, std::vector<NodeId>& fanins) {
    Symbol& target = doc.target(b);
    const std::string name(target.name);
    if (b.mixed_phase) throw ParseError(b.line, "mixed-phase cover for " + name);
    fanins.clear();
    for (std::uint32_t k = 0; k < b.arity; ++k) fanins.push_back(doc.signal(b, k).node);
    if (b.cube_count == 0) {
        target.node = network.add_constant(false);
        network.node(target.node).name = name;
        return;
    }
    // BLIF covers may be written in the off-set phase (output 0): build
    // the on-set, complementing if needed.
    if (b.phase == '0' && b.arity > static_cast<std::uint32_t>(tt::TruthTable::kMaxVars)) {
        throw ParseError(b.line, "off-set cover of the " + std::to_string(b.arity) +
                                     "-input .names block for '" + name +
                                     "' is wider than " +
                                     std::to_string(tt::TruthTable::kMaxVars) + " inputs");
    }
    Sop cover(b.arity);
    if (b.arity == 0) {
        cover = Sop::constant(true, 0);
    } else {
        for (std::uint32_t c = 0; c < b.cube_count; ++c) {
            cover.add_pattern(doc.cubes[b.first_cube + c]);
        }
    }
    if (b.phase == '0') cover = Sop::isop(~cover.to_truth_table());
    target.node = network.add_sop(fanins, std::move(cover), name);
}

/// Appends every part to `out`.
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
    ((out += parts), ...);
}

}  // namespace

Network parse_blif(const std::string& text) {
    reject_open_continuation(text);
    Network network;
    Document doc;
    doc.index.reserve(text.size() / 32);
    bool open_block = false;  // cube lines extend doc.blocks.back()
    bool saw_model = false;

    LogicalLines lines(text);
    while (lines.next()) {
        const std::vector<std::string_view>& tokens = lines.tokens();
        const int line = lines.line();
        const std::string_view head = tokens.front();
        if (head[0] == '.') {
            open_block = false;
            if (head == ".model") {
                if (saw_model) throw ParseError(line, "multiple .model directives");
                saw_model = true;
                if (tokens.size() > 1) network.set_model_name(std::string(tokens[1]));
            } else if (head == ".inputs") {
                for (std::size_t i = 1; i < tokens.size(); ++i) {
                    Symbol& s = doc.symbols[doc.intern(tokens[i])];
                    const std::string name(s.name);
                    if (s.node != kNoNode) {
                        throw ParseError(line, "duplicate input declaration '" + name + "'");
                    }
                    if (s.block >= 0) {
                        throw ParseError(line, "input '" + name +
                                                   "' is already driven by the .names block at line " +
                                                   std::to_string(doc.blocks[s.block].line));
                    }
                    s.node = network.add_input(name);
                }
            } else if (head == ".outputs") {
                for (std::size_t i = 1; i < tokens.size(); ++i) {
                    const std::uint32_t id = doc.intern(tokens[i]);
                    if (doc.symbols[id].output) {
                        throw ParseError(line, "duplicate output declaration '" +
                                                   std::string(tokens[i]) + "'");
                    }
                    doc.symbols[id].output = true;
                    doc.outputs.emplace_back(id, line);
                }
            } else if (head == ".names") {
                if (tokens.size() < 2) {
                    throw ParseError(line, ".names without signals");
                }
                const std::uint32_t target = doc.intern(tokens.back());
                Symbol& t = doc.symbols[target];
                if (t.node != kNoNode) {
                    throw ParseError(line, ".names redefines primary input '" +
                                               std::string(t.name) + "'");
                }
                if (t.block >= 0) {
                    throw ParseError(line, "duplicate driver for signal '" +
                                               std::string(t.name) + "'");
                }
                t.block = static_cast<std::int32_t>(doc.blocks.size());
                Block b;
                b.first_signal = static_cast<std::uint32_t>(doc.signals.size());
                b.arity = static_cast<std::uint32_t>(tokens.size() - 2);
                b.first_cube = static_cast<std::uint32_t>(doc.cubes.size());
                b.line = line;
                for (std::size_t i = 1; i + 1 < tokens.size(); ++i) {
                    doc.signals.push_back(doc.intern(tokens[i]));
                }
                doc.signals.push_back(target);
                doc.blocks.push_back(b);
                open_block = true;
            } else if (head == ".end") {
                break;
            } else if (head == ".latch" || head == ".subckt" || head == ".gate" ||
                       head == ".mlatch") {
                throw ParseError(line, "sequential/hierarchical construct " +
                                           std::string(head) + " not supported");
            }
            // Other dot-directives (.default_input_arrival etc.) are ignored.
            continue;
        }
        if (!open_block) {
            throw ParseError(line, "cube line outside .names: " + lines.joined());
        }
        Block& block = doc.blocks.back();
        char value = 0;
        if (block.arity == 0) {
            // Constant node: the line is just the output value.
            if (tokens.size() != 1 || (tokens[0] != "1" && tokens[0] != "0")) {
                throw ParseError(line, "bad constant line: " + lines.joined());
            }
            value = tokens[0][0];
        } else {
            if (tokens.size() != 2 || tokens[1].size() != 1 ||
                (tokens[1][0] != '0' && tokens[1][0] != '1')) {
                throw ParseError(line, "bad cube line: " + lines.joined());
            }
            if (tokens[0].size() != block.arity) {
                throw ParseError(line, "cube '" + std::string(tokens[0]) + "' has " +
                                           std::to_string(tokens[0].size()) +
                                           " literals for a " +
                                           std::to_string(block.arity) +
                                           "-input .names block");
            }
            for (const char c : tokens[0]) {
                if (c != '0' && c != '1' && c != '-') {
                    throw ParseError(line, "bad cube character '" + std::string(1, c) +
                                               "' in: " + lines.joined());
                }
            }
            value = tokens[1][0];
        }
        doc.cubes.push_back(tokens[0]);
        if (block.cube_count == 0) {
            block.phase = value;
        } else if (value != block.phase) {
            block.mixed_phase = true;
        }
        ++block.cube_count;
    }

    std::vector<std::uint32_t> sweep;
    std::vector<NodeId> fanins;
    const std::vector<std::uint32_t> order = placement_order(doc, sweep);
    for (const std::uint32_t i : order) place(doc, doc.blocks[i], network, fanins);
    if (order.size() < doc.blocks.size()) {
        // Name the exact problem: a fanin that no .inputs/.names ever
        // declares is a typo or a truncated file; if every missing fanin
        // is itself a (stuck) .names target, the blocks form a cycle.
        for (std::uint32_t i = 0; i < doc.blocks.size(); ++i) {
            if (sweep[i] != kNever) continue;
            const Block& b = doc.blocks[i];
            for (std::uint32_t k = 0; k < b.arity; ++k) {
                const Symbol& s = doc.signal(b, k);
                if (s.node == kNoNode && s.block < 0) {
                    throw ParseError(b.line, "undeclared signal '" + std::string(s.name) +
                                                 "' in .names block for '" +
                                                 std::string(doc.target(b).name) + "'");
                }
            }
        }
        for (std::uint32_t i = 0; i < doc.blocks.size(); ++i) {
            if (sweep[i] == kNever) {
                throw ParseError(doc.blocks[i].line,
                                 "combinational cycle through signal '" +
                                     std::string(doc.target(doc.blocks[i]).name) + "'");
            }
        }
    }

    for (const auto& [id, line] : doc.outputs) {
        const Symbol& s = doc.symbols[id];
        if (s.node == kNoNode) {
            throw ParseError(line, "undriven output " + std::string(s.name));
        }
        network.add_output(std::string(s.name), s.node);
    }
    return network;
}

std::string write_blif(const Network& network) {
    std::string out;
    out.reserve(64 + 24 * network.node_count());
    // node_name() without its copy: "n<id>" is spelled into `spelled`.
    char spelled[16];
    const auto name_of = [&](NodeId id) -> std::string_view {
        const std::string& name = network.node(id).name;
        if (!name.empty()) return name;
        spelled[0] = 'n';
        const char* end = std::to_chars(spelled + 1, spelled + sizeof spelled, id).ptr;
        return {spelled, static_cast<std::size_t>(end - spelled)};
    };

    append(out, ".model ", network.model_name(), "\n.inputs");
    for (const NodeId id : network.inputs()) append(out, ' ', name_of(id));
    out += "\n.outputs";
    for (const OutputPort& po : network.outputs()) append(out, ' ', po.name);
    out += '\n';

    // Emit every non-input node as a .names block over its fanins.
    for (const NodeId id : network.topo_order()) {
        const Node& n = network.node(id);
        if (n.kind == GateKind::kInput) continue;
        out += ".names";
        for (const NodeId f : n.fanins) append(out, ' ', name_of(f));
        append(out, ' ', name_of(id), '\n');
        switch (n.kind) {
            case GateKind::kConst0: break;  // empty cover = 0
            case GateKind::kConst1: out += "1\n"; break;
            case GateKind::kBuf: out += "1 1\n"; break;
            case GateKind::kNot: out += "0 1\n"; break;
            case GateKind::kAnd: out += "11 1\n"; break;
            case GateKind::kOr: out += "1- 1\n-1 1\n"; break;
            case GateKind::kNand: out += "0- 1\n-0 1\n"; break;
            case GateKind::kNor: out += "00 1\n"; break;
            case GateKind::kXor: out += "10 1\n01 1\n"; break;
            case GateKind::kXnor: out += "11 1\n00 1\n"; break;
            case GateKind::kMaj: out += "11- 1\n1-1 1\n-11 1\n"; break;
            case GateKind::kMux: out += "11- 1\n0-1 1\n"; break;
            case GateKind::kSop: out += n.sop.to_blif_body(); break;
            case GateKind::kInput: break;
        }
    }
    // Output ports whose name differs from the driver need a buffer block.
    for (const OutputPort& po : network.outputs()) {
        if (name_of(po.driver) != po.name) {
            append(out, ".names ", name_of(po.driver), ' ', po.name, "\n1 1\n");
        }
    }
    out += ".end\n";
    return out;
}

Network read_blif_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse_blif(ss.str());
}

void write_blif_file(const Network& network, const std::string& path) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path);
    out << write_blif(network);
}

}  // namespace bdsmaj::net
