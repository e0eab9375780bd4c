#include "io/import.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace mvf::io {

using net::Aig;
using net::Lit;

namespace {

// ------------------------------------------------------------- lexing --

/// Line reader shared by the text formats: strips '#' comments, joins
/// '\'-continued lines and tracks the 1-based number of the FIRST physical
/// line of each logical line (what ParseError should point at).
class LineReader {
public:
    explicit LineReader(std::istream& in) : in_(in) {}

    /// Fills *out with the next non-empty logical line; returns false at
    /// EOF.  *line receives the 1-based starting line number.
    bool next(std::string* out, int* line) {
        std::string logical;
        int start = 0;
        std::string physical;
        while (std::getline(in_, physical)) {
            ++line_no_;
            const std::size_t hash = physical.find('#');
            if (hash != std::string::npos) physical.resize(hash);
            if (start == 0 && !is_blank(physical)) start = line_no_;
            if (!physical.empty() && physical.back() == '\\') {
                logical += physical.substr(0, physical.size() - 1);
                logical += ' ';
                continue;
            }
            logical += physical;
            if (is_blank(logical)) {
                logical.clear();
                start = 0;
                continue;
            }
            *out = std::move(logical);
            *line = start;
            return true;
        }
        return false;
    }

private:
    static bool is_blank(const std::string& s) {
        return std::all_of(s.begin(), s.end(), [](unsigned char c) {
            return std::isspace(c) != 0;
        });
    }

    std::istream& in_;
    int line_no_ = 0;
};

std::vector<std::string> tokenize(const std::string& s) {
    std::vector<std::string> tokens;
    std::istringstream in(s);
    std::string t;
    while (in >> t) tokens.push_back(t);
    return tokens;
}

std::string trim(const std::string& s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return s.substr(b, e - b);
}

std::string upper(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::toupper(c));
    });
    return s;
}

std::string file_stem(const std::string& path) {
    const std::size_t slash = path.find_last_of("/\\");
    const std::size_t start = slash == std::string::npos ? 0 : slash + 1;
    const std::size_t dot = path.find_last_of('.');
    const std::size_t end =
        (dot == std::string::npos || dot <= start) ? path.size() : dot;
    return path.substr(start, end - start);
}

// ------------------------------------------- named net-graph building --

/// One combinational gate awaiting construction: its fanin net names and a
/// builder mapping resolved fanin literals to the output literal.
struct GateDef {
    std::string output;
    std::vector<std::string> inputs;
    int line = 0;
    std::function<Lit(Aig&, std::span<const Lit>)> build;
};

/// Builds every gate into `circuit->aig` in dependency order, validating
/// as it goes: a net driven by two gates (or a gate and a primary input)
/// is multiply driven, a referenced net nobody drives is undriven, and a
/// dependency back-edge is a combinational cycle.  ALL gates are built --
/// including logic outside the output cones, so dangling garbage is still
/// validated -- then the AIG is cleaned up to the reachable subgraph.
void build_gates(const std::string& file, std::vector<GateDef> gates,
                 ImportedCircuit* circuit) {
    Aig& aig = circuit->aig;
    std::unordered_map<std::string, Lit> value;
    for (int i = 0; i < static_cast<int>(circuit->input_names.size()); ++i) {
        value.emplace(circuit->input_names[static_cast<std::size_t>(i)],
                      aig.pi(i));
    }

    std::unordered_map<std::string, int> driver;
    for (int g = 0; g < static_cast<int>(gates.size()); ++g) {
        const GateDef& gate = gates[static_cast<std::size_t>(g)];
        if (value.count(gate.output)) {
            throw ParseError(file, gate.line,
                             "net \"" + gate.output +
                                 "\" is multiply driven (also a primary "
                                 "input)");
        }
        if (!driver.emplace(gate.output, g).second) {
            throw ParseError(file, gate.line,
                             "net \"" + gate.output + "\" is multiply driven");
        }
    }

    // Iterative DFS (deep chains would overflow the call stack);
    // state 0 = unvisited, 1 = on the DFS stack, 2 = built.
    std::vector<int> state(gates.size(), 0);
    struct Frame {
        int gate;
        std::size_t next = 0;
    };
    std::vector<Frame> stack;
    std::vector<Lit> fanin_lits;
    for (int root = 0; root < static_cast<int>(gates.size()); ++root) {
        if (state[static_cast<std::size_t>(root)] != 0) continue;
        state[static_cast<std::size_t>(root)] = 1;
        stack.push_back({root});
        while (!stack.empty()) {
            Frame& f = stack.back();
            GateDef& g = gates[static_cast<std::size_t>(f.gate)];
            if (f.next < g.inputs.size()) {
                const std::string& in = g.inputs[f.next];
                ++f.next;
                if (value.count(in)) continue;
                const auto it = driver.find(in);
                if (it == driver.end()) {
                    throw ParseError(file, g.line,
                                     "net \"" + in +
                                         "\" is undriven (used by \"" +
                                         g.output + "\")");
                }
                const int dep = it->second;
                if (state[static_cast<std::size_t>(dep)] == 1) {
                    throw ParseError(file, g.line,
                                     "combinational cycle through net \"" +
                                         in + "\"");
                }
                if (state[static_cast<std::size_t>(dep)] == 2) continue;
                state[static_cast<std::size_t>(dep)] = 1;
                stack.push_back({dep});
                continue;
            }
            fanin_lits.clear();
            for (const std::string& in : g.inputs) {
                fanin_lits.push_back(value.at(in));
            }
            value[g.output] = g.build(aig, fanin_lits);
            state[static_cast<std::size_t>(f.gate)] = 2;
            stack.pop_back();
        }
    }

    for (const std::string& po : circuit->output_names) {
        const auto it = value.find(po);
        if (it == value.end()) {
            throw ParseError(file, 0,
                             "primary output \"" + po + "\" is undriven");
        }
        aig.add_po(it->second);
    }
    circuit->aig = aig.cleanup();
}

// --------------------------------------------------------------- BLIF --

/// One .names cover: cube patterns over the table inputs plus the shared
/// output phase (true = on-set rows, false = off-set rows).
struct BlifCover {
    std::vector<std::string> cubes;
    bool on_set = true;
};

Lit build_cover(Aig& aig, std::span<const Lit> fanins, const BlifCover& c) {
    if (fanins.empty()) {
        // Zero-input table: rows are bare output values.  Empty cover is
        // the BLIF constant 0; any row makes it the stated constant.
        const bool one = !c.cubes.empty() && c.on_set;
        return one ? Aig::kConst1 : Aig::kConst0;
    }
    std::vector<Lit> cube_lits;
    std::vector<Lit> term;
    for (const std::string& cube : c.cubes) {
        term.clear();
        for (std::size_t b = 0; b < cube.size(); ++b) {
            if (cube[b] == '1') {
                term.push_back(fanins[b]);
            } else if (cube[b] == '0') {
                term.push_back(Aig::lit_not(fanins[b]));
            }  // '-' contributes nothing to the cube
        }
        cube_lits.push_back(aig.and_many(term));
    }
    const Lit f = aig.or_many(cube_lits);
    return c.on_set ? f : Aig::lit_not(f);
}

}  // namespace

ImportedCircuit read_blif(std::istream& in, const std::string& filename) {
    ImportedCircuit circuit;
    std::vector<GateDef> gates;
    std::unordered_set<std::string> seen_inputs;

    // The table currently collecting rows (rows belong to the most recent
    // .names until the next directive).
    GateDef* current = nullptr;
    BlifCover* cover = nullptr;
    std::vector<std::unique_ptr<BlifCover>> covers;
    bool phase_known = false;
    bool saw_model = false;
    bool done = false;

    LineReader reader(in);
    std::string line;
    int line_no = 0;
    while (!done && reader.next(&line, &line_no)) {
        const std::vector<std::string> tokens = tokenize(line);
        if (tokens.empty()) continue;
        const std::string& head = tokens[0];
        if (head[0] == '.') {
            current = nullptr;
            cover = nullptr;
            phase_known = false;
        }
        if (head == ".model") {
            if (!saw_model && tokens.size() > 1) circuit.name = tokens[1];
            saw_model = true;
        } else if (head == ".inputs") {
            for (std::size_t i = 1; i < tokens.size(); ++i) {
                if (!seen_inputs.insert(tokens[i]).second) {
                    throw ParseError(filename, line_no,
                                     "primary input \"" + tokens[i] +
                                         "\" declared twice");
                }
                circuit.input_names.push_back(tokens[i]);
            }
        } else if (head == ".outputs") {
            circuit.output_names.insert(circuit.output_names.end(),
                                        tokens.begin() + 1, tokens.end());
        } else if (head == ".names") {
            if (tokens.size() < 2) {
                throw ParseError(filename, line_no,
                                 ".names needs at least an output signal");
            }
            GateDef gate;
            gate.output = tokens.back();
            gate.inputs.assign(tokens.begin() + 1, tokens.end() - 1);
            gate.line = line_no;
            covers.push_back(std::make_unique<BlifCover>());
            BlifCover* c = covers.back().get();
            gate.build = [c](Aig& aig, std::span<const Lit> fanins) {
                return build_cover(aig, fanins, *c);
            };
            gates.push_back(std::move(gate));
            current = &gates.back();
            cover = c;
        } else if (head == ".latch") {
            throw ParseError(filename, line_no,
                             "sequential BLIF is not supported (.latch); "
                             "this flow imports combinational circuits only");
        } else if (head == ".end") {
            done = true;
        } else if (head[0] == '.') {
            throw ParseError(filename, line_no,
                             "unsupported BLIF directive \"" + head + "\"");
        } else {
            // A cover row of the open .names table.
            if (!current) {
                throw ParseError(filename, line_no,
                                 "table row outside a .names block");
            }
            std::string pattern;
            char out_value;
            if (current->inputs.empty()) {
                if (tokens.size() != 1 || tokens[0].size() != 1) {
                    throw ParseError(filename, line_no,
                                     "zero-input .names row must be a single "
                                     "0 or 1");
                }
                out_value = tokens[0][0];
            } else {
                if (tokens.size() != 2 || tokens[1].size() != 1) {
                    throw ParseError(filename, line_no,
                                     "expected \"<cube> <0|1>\" row");
                }
                pattern = tokens[0];
                out_value = tokens[1][0];
                if (pattern.size() != current->inputs.size()) {
                    throw ParseError(
                        filename, line_no,
                        "cube width " + std::to_string(pattern.size()) +
                            " does not match the table's " +
                            std::to_string(current->inputs.size()) +
                            " inputs");
                }
                for (const char ch : pattern) {
                    if (ch != '0' && ch != '1' && ch != '-') {
                        throw ParseError(filename, line_no,
                                         std::string("bad cube character '") +
                                             ch + "' (expected 0, 1 or -)");
                    }
                }
            }
            if (out_value != '0' && out_value != '1') {
                throw ParseError(filename, line_no,
                                 std::string("bad output value '") +
                                     out_value + "' (expected 0 or 1)");
            }
            const bool on_set = out_value == '1';
            if (phase_known && cover->on_set != on_set) {
                throw ParseError(filename, line_no,
                                 "table mixes on-set and off-set rows");
            }
            cover->on_set = on_set;
            phase_known = true;
            cover->cubes.push_back(std::move(pattern));
        }
    }

    if (circuit.output_names.empty()) {
        throw ParseError(filename, 0, "no .outputs declared");
    }
    circuit.aig = Aig(static_cast<int>(circuit.input_names.size()));
    build_gates(filename, std::move(gates), &circuit);
    return circuit;
}

// -------------------------------------------------------------- bench --

namespace {

enum class BenchOp { kAnd, kNand, kOr, kNor, kXor, kXnor, kNot, kBuf };

Lit build_bench_gate(Aig& aig, std::span<const Lit> fanins, BenchOp op) {
    switch (op) {
        case BenchOp::kAnd:
            return aig.and_many(fanins);
        case BenchOp::kNand:
            return Aig::lit_not(aig.and_many(fanins));
        case BenchOp::kOr:
            return aig.or_many(fanins);
        case BenchOp::kNor:
            return Aig::lit_not(aig.or_many(fanins));
        case BenchOp::kXor:
        case BenchOp::kXnor: {
            Lit acc = fanins[0];
            for (std::size_t i = 1; i < fanins.size(); ++i) {
                acc = aig.xor2(acc, fanins[i]);
            }
            return op == BenchOp::kXor ? acc : Aig::lit_not(acc);
        }
        case BenchOp::kNot:
            return Aig::lit_not(fanins[0]);
        case BenchOp::kBuf:
            return fanins[0];
    }
    return Aig::kConst0;  // unreachable
}

}  // namespace

ImportedCircuit read_bench(std::istream& in, const std::string& filename) {
    ImportedCircuit circuit;
    std::vector<GateDef> gates;
    std::unordered_set<std::string> seen_inputs;

    LineReader reader(in);
    std::string line;
    int line_no = 0;
    while (reader.next(&line, &line_no)) {
        const std::string text = trim(line);
        if (text.empty()) continue;
        const std::size_t eq = text.find('=');
        const std::size_t open = text.find('(');
        const std::size_t close = text.rfind(')');
        if (open == std::string::npos || close == std::string::npos ||
            close < open) {
            throw ParseError(filename, line_no,
                             "expected INPUT(..), OUTPUT(..) or "
                             "\"name = GATE(..)\"");
        }
        const std::string args_text = text.substr(open + 1, close - open - 1);
        std::vector<std::string> args;
        {
            std::istringstream as(args_text);
            std::string item;
            while (std::getline(as, item, ',')) {
                const std::string a = trim(item);
                if (a.empty()) {
                    throw ParseError(filename, line_no,
                                     "empty argument in \"" + text + "\"");
                }
                args.push_back(a);
            }
        }
        if (eq == std::string::npos || eq > open) {
            const std::string keyword = upper(trim(text.substr(0, open)));
            if (args.size() != 1) {
                throw ParseError(filename, line_no,
                                 keyword + " takes exactly one signal");
            }
            if (keyword == "INPUT") {
                if (!seen_inputs.insert(args[0]).second) {
                    throw ParseError(filename, line_no,
                                     "primary input \"" + args[0] +
                                         "\" declared twice");
                }
                circuit.input_names.push_back(args[0]);
            } else if (keyword == "OUTPUT") {
                circuit.output_names.push_back(args[0]);
            } else {
                throw ParseError(filename, line_no,
                                 "unknown directive \"" + keyword + "\"");
            }
            continue;
        }
        GateDef gate;
        gate.output = trim(text.substr(0, eq));
        gate.line = line_no;
        if (gate.output.empty()) {
            throw ParseError(filename, line_no, "missing gate output name");
        }
        const std::string op_name =
            upper(trim(text.substr(eq + 1, open - eq - 1)));
        BenchOp op;
        if (op_name == "AND") {
            op = BenchOp::kAnd;
        } else if (op_name == "NAND") {
            op = BenchOp::kNand;
        } else if (op_name == "OR") {
            op = BenchOp::kOr;
        } else if (op_name == "NOR") {
            op = BenchOp::kNor;
        } else if (op_name == "XOR") {
            op = BenchOp::kXor;
        } else if (op_name == "XNOR") {
            op = BenchOp::kXnor;
        } else if (op_name == "NOT") {
            op = BenchOp::kNot;
        } else if (op_name == "BUFF" || op_name == "BUF") {
            op = BenchOp::kBuf;
        } else if (op_name == "DFF" || op_name == "DFFSR" ||
                   op_name == "SDFF" || op_name == "LATCH") {
            throw ParseError(filename, line_no,
                             "sequential element " + op_name +
                                 " is not supported; this flow imports "
                                 "combinational circuits only");
        } else {
            throw ParseError(filename, line_no,
                             "unknown gate type \"" + op_name + "\"");
        }
        if ((op == BenchOp::kNot || op == BenchOp::kBuf) && args.size() != 1) {
            throw ParseError(filename, line_no,
                             op_name + " takes exactly one input");
        }
        if (args.empty()) {
            throw ParseError(filename, line_no, op_name + " needs inputs");
        }
        gate.inputs = std::move(args);
        gate.build = [op](Aig& aig, std::span<const Lit> fanins) {
            return build_bench_gate(aig, fanins, op);
        };
        gates.push_back(std::move(gate));
    }

    if (circuit.output_names.empty()) {
        throw ParseError(filename, 0, "no OUTPUT(..) declared");
    }
    circuit.aig = Aig(static_cast<int>(circuit.input_names.size()));
    build_gates(filename, std::move(gates), &circuit);
    return circuit;
}

// -------------------------------------------------------------- AIGER --

namespace {

std::uint64_t parse_aiger_uint(const std::string& token,
                               const std::string& file, int line) {
    if (token.empty() ||
        !std::all_of(token.begin(), token.end(), [](unsigned char c) {
            return std::isdigit(c) != 0;
        })) {
        throw ParseError(file, line, "expected a number, got \"" + token + "\"");
    }
    try {
        return std::stoull(token);
    } catch (const std::exception&) {
        throw ParseError(file, line, "number out of range: \"" + token + "\"");
    }
}

/// AIGER's LEB128-style delta decoding for the binary "aig" format.
std::uint64_t decode_delta(std::istream& in, const std::string& file) {
    std::uint64_t value = 0;
    int shift = 0;
    while (true) {
        const int byte = in.get();
        if (byte == std::char_traits<char>::eof()) {
            throw ParseError(file, 0,
                             "truncated binary AIGER (EOF inside an "
                             "and-gate delta)");
        }
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) return value;
        shift += 7;
        if (shift > 63) {
            throw ParseError(file, 0, "binary AIGER delta overflows 64 bits");
        }
    }
}

}  // namespace

ImportedCircuit read_aiger(std::istream& in, const std::string& filename) {
    std::string header;
    if (!std::getline(in, header)) {
        throw ParseError(filename, 1, "empty AIGER file");
    }
    const std::vector<std::string> h = tokenize(header);
    if (h.size() < 6 || (h[0] != "aag" && h[0] != "aig")) {
        throw ParseError(filename, 1,
                         "expected an AIGER header \"aag|aig M I L O A\"");
    }
    const bool binary = h[0] == "aig";
    const std::uint64_t max_var = parse_aiger_uint(h[1], filename, 1);
    const std::uint64_t num_inputs = parse_aiger_uint(h[2], filename, 1);
    const std::uint64_t num_latches = parse_aiger_uint(h[3], filename, 1);
    const std::uint64_t num_outputs = parse_aiger_uint(h[4], filename, 1);
    const std::uint64_t num_ands = parse_aiger_uint(h[5], filename, 1);
    if (num_latches > 0) {
        throw ParseError(filename, 1,
                         "sequential AIGER (latches) is not supported; this "
                         "flow imports combinational circuits only");
    }
    for (std::size_t i = 6; i < h.size(); ++i) {
        if (parse_aiger_uint(h[i], filename, 1) != 0) {
            throw ParseError(filename, 1,
                             "AIGER extension sections (bad/constraint/"
                             "justice/fairness) are not supported");
        }
    }
    if (max_var < num_inputs + num_ands) {
        throw ParseError(filename, 1,
                         "AIGER header: M must be >= I + L + A");
    }
    if (max_var > (1u << 24)) {
        throw ParseError(filename, 1, "AIGER circuit too large");
    }

    ImportedCircuit circuit;
    circuit.aig = Aig(static_cast<int>(num_inputs));
    Aig& aig = circuit.aig;

    constexpr Lit kUndef = Aig::kNoLit;
    std::vector<Lit> var2lit(static_cast<std::size_t>(max_var) + 1, kUndef);
    var2lit[0] = Aig::kConst0;

    int line_no = 1;
    const auto next_line = [&](const char* what) {
        std::string l;
        if (!std::getline(in, l)) {
            throw ParseError(filename, line_no,
                             std::string("truncated AIGER file (expected ") +
                                 what + ")");
        }
        ++line_no;
        return l;
    };
    const auto map_lit = [&](std::uint64_t aiger_lit,
                             int at_line) -> Lit {
        const std::uint64_t var = aiger_lit >> 1;
        if (var > max_var) {
            throw ParseError(filename, at_line,
                             "literal " + std::to_string(aiger_lit) +
                                 " exceeds the declared maximum variable");
        }
        const Lit base = var2lit[static_cast<std::size_t>(var)];
        if (base == kUndef) {
            throw ParseError(filename, at_line,
                             "literal " + std::to_string(aiger_lit) +
                                 " references an undefined variable "
                                 "(undriven)");
        }
        return (aiger_lit & 1) ? Aig::lit_not(base) : base;
    };

    std::vector<std::uint64_t> output_lits;
    output_lits.reserve(static_cast<std::size_t>(num_outputs));

    if (!binary) {
        for (std::uint64_t i = 0; i < num_inputs; ++i) {
            const std::string l = next_line("an input literal");
            const std::uint64_t lit = parse_aiger_uint(trim(l), filename, line_no);
            if (lit < 2 || (lit & 1) != 0 || (lit >> 1) > max_var) {
                throw ParseError(filename, line_no,
                                 "bad input literal " + std::to_string(lit));
            }
            Lit& slot = var2lit[static_cast<std::size_t>(lit >> 1)];
            if (slot != kUndef) {
                throw ParseError(filename, line_no,
                                 "variable " + std::to_string(lit >> 1) +
                                     " is defined twice (multiply driven)");
            }
            slot = aig.pi(static_cast<int>(i));
        }
        for (std::uint64_t i = 0; i < num_outputs; ++i) {
            const std::string l = next_line("an output literal");
            output_lits.push_back(parse_aiger_uint(trim(l), filename, line_no));
        }
        // Ascii and-gates may reference later definitions; collect, then
        // resolve in dependency order with cycle detection.
        struct AndDef {
            std::uint64_t rhs0 = 0;
            std::uint64_t rhs1 = 0;
            int line = 0;
            int state = 0;  // 0 unvisited, 1 on stack, 2 built
        };
        std::unordered_map<std::uint64_t, AndDef> ands;
        std::vector<std::uint64_t> order;
        for (std::uint64_t i = 0; i < num_ands; ++i) {
            const std::vector<std::string> t =
                tokenize(next_line("an and-gate definition"));
            if (t.size() != 3) {
                throw ParseError(filename, line_no,
                                 "expected \"lhs rhs0 rhs1\"");
            }
            const std::uint64_t lhs = parse_aiger_uint(t[0], filename, line_no);
            if (lhs < 2 || (lhs & 1) != 0 || (lhs >> 1) > max_var) {
                throw ParseError(filename, line_no,
                                 "bad and-gate literal " + std::to_string(lhs));
            }
            if (var2lit[static_cast<std::size_t>(lhs >> 1)] != kUndef ||
                ands.count(lhs >> 1)) {
                throw ParseError(filename, line_no,
                                 "variable " + std::to_string(lhs >> 1) +
                                     " is defined twice (multiply driven)");
            }
            AndDef def;
            def.rhs0 = parse_aiger_uint(t[1], filename, line_no);
            def.rhs1 = parse_aiger_uint(t[2], filename, line_no);
            def.line = line_no;
            ands.emplace(lhs >> 1, def);
            order.push_back(lhs >> 1);
        }
        struct Frame {
            std::uint64_t var;
            int next = 0;
        };
        std::vector<Frame> stack;
        for (const std::uint64_t root : order) {
            if (ands.at(root).state != 0) continue;
            ands.at(root).state = 1;
            stack.push_back({root});
            while (!stack.empty()) {
                Frame& f = stack.back();
                AndDef& d = ands.at(f.var);
                if (f.next < 2) {
                    const std::uint64_t rhs = f.next == 0 ? d.rhs0 : d.rhs1;
                    ++f.next;
                    const std::uint64_t var = rhs >> 1;
                    if (var <= max_var &&
                        var2lit[static_cast<std::size_t>(var)] != kUndef) {
                        continue;
                    }
                    const auto it = ands.find(var);
                    if (it == ands.end()) {
                        map_lit(rhs, d.line);  // throws undriven/out-of-range
                        continue;
                    }
                    if (it->second.state == 1) {
                        throw ParseError(filename, d.line,
                                         "combinational cycle through "
                                         "variable " + std::to_string(var));
                    }
                    if (it->second.state == 2) continue;
                    it->second.state = 1;
                    stack.push_back({var});
                    continue;
                }
                var2lit[static_cast<std::size_t>(f.var)] =
                    aig.and2(map_lit(d.rhs0, d.line), map_lit(d.rhs1, d.line));
                d.state = 2;
                stack.pop_back();
            }
        }
    } else {
        for (std::uint64_t i = 0; i < num_inputs; ++i) {
            var2lit[static_cast<std::size_t>(i) + 1] =
                aig.pi(static_cast<int>(i));
        }
        for (std::uint64_t i = 0; i < num_outputs; ++i) {
            const std::string l = next_line("an output literal");
            output_lits.push_back(parse_aiger_uint(trim(l), filename, line_no));
        }
        for (std::uint64_t i = 0; i < num_ands; ++i) {
            const std::uint64_t lhs = 2 * (num_inputs + i + 1);
            const std::uint64_t delta0 = decode_delta(in, filename);
            if (delta0 > lhs) {
                throw ParseError(filename, 0,
                                 "binary AIGER delta points past its "
                                 "and-gate (corrupt or reordered file)");
            }
            const std::uint64_t rhs0 = lhs - delta0;
            const std::uint64_t delta1 = decode_delta(in, filename);
            if (delta1 > rhs0) {
                throw ParseError(filename, 0,
                                 "binary AIGER delta points past its "
                                 "and-gate (corrupt or reordered file)");
            }
            const std::uint64_t rhs1 = rhs0 - delta1;
            var2lit[static_cast<std::size_t>(lhs >> 1)] =
                aig.and2(map_lit(rhs0, 0), map_lit(rhs1, 0));
        }
    }

    // Optional symbol table and comment section.
    circuit.input_names.resize(static_cast<std::size_t>(num_inputs));
    for (std::uint64_t i = 0; i < num_inputs; ++i) {
        circuit.input_names[static_cast<std::size_t>(i)] =
            "i" + std::to_string(i);
    }
    circuit.output_names.resize(static_cast<std::size_t>(num_outputs));
    for (std::uint64_t i = 0; i < num_outputs; ++i) {
        circuit.output_names[static_cast<std::size_t>(i)] =
            "o" + std::to_string(i);
    }
    std::string sym;
    while (std::getline(in, sym)) {
        ++line_no;
        if (sym.empty()) continue;
        if (sym[0] == 'c') break;  // comment section: everything after is free text
        if (sym[0] != 'i' && sym[0] != 'o' && sym[0] != 'l') {
            throw ParseError(filename, line_no,
                             "bad symbol-table line \"" + sym + "\"");
        }
        const std::size_t space = sym.find(' ');
        if (space == std::string::npos || space < 2) {
            throw ParseError(filename, line_no,
                             "bad symbol-table line \"" + sym + "\"");
        }
        if (sym[0] == 'l') continue;  // no latches; tolerate stray symbols
        const std::uint64_t pos =
            parse_aiger_uint(sym.substr(1, space - 1), filename, line_no);
        const std::string name = trim(sym.substr(space + 1));
        if (sym[0] == 'i' && pos < num_inputs && !name.empty()) {
            circuit.input_names[static_cast<std::size_t>(pos)] = name;
        } else if (sym[0] == 'o' && pos < num_outputs && !name.empty()) {
            circuit.output_names[static_cast<std::size_t>(pos)] = name;
        }
    }

    for (std::size_t i = 0; i < output_lits.size(); ++i) {
        aig.add_po(map_lit(output_lits[i], 0));
    }
    circuit.aig = aig.cleanup();
    return circuit;
}

void write_aiger(const Aig& aig, std::ostream& out, bool binary) {
    const int num_inputs = aig.num_pis();
    const int num_ands = aig.num_ands();
    const int max_var = aig.num_nodes() - 1;
    out << (binary ? "aig " : "aag ") << max_var << ' ' << num_inputs
        << " 0 " << aig.num_pos() << ' ' << num_ands << '\n';
    if (!binary) {
        for (int i = 0; i < num_inputs; ++i) out << (2 * (i + 1)) << '\n';
    }
    for (int i = 0; i < aig.num_pos(); ++i) out << aig.po(i) << '\n';
    const auto encode_delta = [&out](std::uint64_t x) {
        while (x & ~0x7full) {
            out.put(static_cast<char>(0x80 | (x & 0x7f)));
            x >>= 7;
        }
        out.put(static_cast<char>(x));
    };
    for (int n = num_inputs + 1; n < aig.num_nodes(); ++n) {
        const std::uint64_t lhs = 2ull * static_cast<std::uint64_t>(n);
        const std::uint64_t f0 = aig.fanin0(n);
        const std::uint64_t f1 = aig.fanin1(n);
        const std::uint64_t rhs0 = std::max(f0, f1);
        const std::uint64_t rhs1 = std::min(f0, f1);
        if (binary) {
            encode_delta(lhs - rhs0);
            encode_delta(rhs0 - rhs1);
        } else {
            out << lhs << ' ' << rhs0 << ' ' << rhs1 << '\n';
        }
    }
}

// ----------------------------------------------------------- dispatch --

ImportedCircuit load_circuit(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw ParseError(path, 0, "cannot open circuit file");
    }
    std::string ext;
    const std::size_t dot = path.find_last_of('.');
    if (dot != std::string::npos) {
        ext = path.substr(dot + 1);
        std::transform(ext.begin(), ext.end(), ext.begin(),
                       [](unsigned char c) {
                           return static_cast<char>(std::tolower(c));
                       });
    }
    ImportedCircuit circuit;
    if (ext == "blif") {
        circuit = read_blif(in, path);
    } else if (ext == "bench") {
        circuit = read_bench(in, path);
    } else if (ext == "aag" || ext == "aig") {
        circuit = read_aiger(in, path);
    } else {
        // Unknown extension: sniff the first bytes, then rewind.
        char head[4] = {0, 0, 0, 0};
        in.read(head, sizeof(head));
        in.clear();
        in.seekg(0);
        const std::string magic(head, static_cast<std::size_t>(4));
        if (magic.rfind("aag", 0) == 0 || magic.rfind("aig", 0) == 0) {
            circuit = read_aiger(in, path);
        } else if (head[0] == '.') {
            circuit = read_blif(in, path);
        } else {
            circuit = read_bench(in, path);
        }
    }
    if (circuit.name.empty()) circuit.name = file_stem(path);
    return circuit;
}

tech::Netlist import_netlist(const ImportedCircuit& circuit,
                             const tech::MatchCache& cache,
                             const tech::TechMapParams& params) {
    // No pin is a select: imported circuits carry no merged-specification
    // structure; every input is an attacker-visible primary input.
    const std::vector<bool> is_select(circuit.input_names.size(), false);
    return tech::tech_map(circuit.aig, cache, params, circuit.input_names,
                          is_select);
}

}  // namespace mvf::io
