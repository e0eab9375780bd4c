#include "io/blif.hpp"

#include <ostream>
#include <vector>

#include "io/import.hpp"
#include "net/aig_sim.hpp"

namespace mvf::io {

using net::Aig;
using net::Lit;

namespace {

std::string aig_signal(Lit l) {
    if (l == Aig::kConst0) return "gnd";
    if (l == Aig::kConst1) return "vdd";
    const std::string base = 'n' + std::to_string(Aig::lit_node(l));
    return Aig::lit_complemented(l) ? base + "_inv" : base;
}

}  // namespace

void write_blif(const Aig& aig, const std::string& model_name,
                std::ostream& out) {
    out << ".model " << model_name << "\n.inputs";
    for (int i = 0; i < aig.num_pis(); ++i) out << " n" << (i + 1);
    out << "\n.outputs";
    for (int i = 0; i < aig.num_pos(); ++i) out << " po" << i;
    out << "\n";
    out << ".names gnd\n";        // constant 0
    out << ".names vdd\n1\n";     // constant 1

    // Inverted signals needed anywhere.
    std::vector<bool> need_inv(static_cast<std::size_t>(aig.num_nodes()), false);
    for (int n = aig.num_pis() + 1; n < aig.num_nodes(); ++n) {
        for (const Lit f : {aig.fanin0(n), aig.fanin1(n)}) {
            if (Aig::lit_complemented(f)) {
                need_inv[static_cast<std::size_t>(Aig::lit_node(f))] = true;
            }
        }
    }
    for (int i = 0; i < aig.num_pos(); ++i) {
        const Lit po = aig.po(i);
        if (Aig::lit_complemented(po)) {
            need_inv[static_cast<std::size_t>(Aig::lit_node(po))] = true;
        }
    }
    // Definition-before-use order: PI inverters first, then each AND node
    // immediately followed by its inverter when some consumer needs it.
    for (int n = 1; n <= aig.num_pis(); ++n) {
        if (need_inv[static_cast<std::size_t>(n)]) {
            out << ".names n" << n << " n" << n << "_inv\n0 1\n";
        }
    }
    for (int n = aig.num_pis() + 1; n < aig.num_nodes(); ++n) {
        out << ".names " << aig_signal(aig.fanin0(n)) << " "
            << aig_signal(aig.fanin1(n)) << " n" << n << "\n11 1\n";
        if (need_inv[static_cast<std::size_t>(n)]) {
            out << ".names n" << n << " n" << n << "_inv\n0 1\n";
        }
    }
    for (int i = 0; i < aig.num_pos(); ++i) {
        out << ".names " << aig_signal(aig.po(i)) << " po" << i << "\n1 1\n";
    }
    out << ".end\n";
}

void write_blif(const tech::Netlist& netlist, const std::string& model_name,
                std::ostream& out) {
    out << ".model " << model_name << "\n.inputs";
    for (int i = 0; i < netlist.num_pis(); ++i) {
        out << " " << netlist.node(netlist.pi(i)).name;
    }
    out << "\n.outputs";
    for (int i = 0; i < netlist.num_pos(); ++i) out << " " << netlist.po_name(i);
    out << "\n";

    const auto signal = [&netlist](int id) -> std::string {
        const tech::Netlist::Node& n = netlist.node(id);
        switch (n.kind) {
            case tech::Netlist::NodeKind::kPi:
                return n.name;
            case tech::Netlist::NodeKind::kConst0:
                return "gnd";
            case tech::Netlist::NodeKind::kConst1:
                return "vdd";
            case tech::Netlist::NodeKind::kCell:
                return 'w' + std::to_string(id);
        }
        return "?";
    };

    bool has_const0 = false;
    bool has_const1 = false;
    for (int id = 0; id < netlist.num_nodes(); ++id) {
        if (netlist.node(id).kind == tech::Netlist::NodeKind::kConst0) has_const0 = true;
        if (netlist.node(id).kind == tech::Netlist::NodeKind::kConst1) has_const1 = true;
    }
    if (has_const0) out << ".names gnd\n";
    if (has_const1) out << ".names vdd\n1\n";

    for (int id = 0; id < netlist.num_nodes(); ++id) {
        const tech::Netlist::Node& n = netlist.node(id);
        if (n.kind != tech::Netlist::NodeKind::kCell) continue;
        const tech::GateCell& cell = netlist.library().cell(n.cell_id);
        out << ".names";
        for (const int f : n.fanins) out << " " << signal(f);
        out << " w" << id << "  # " << cell.name << "\n";
        for (std::uint32_t m = 0; m < cell.function.num_bits(); ++m) {
            if (!cell.function.bit(m)) continue;
            for (int b = 0; b < cell.num_inputs; ++b) out << ((m >> b) & 1);
            out << " 1\n";
        }
    }
    for (int i = 0; i < netlist.num_pos(); ++i) {
        out << ".names " << signal(netlist.po(i)) << " " << netlist.po_name(i)
            << "\n1 1\n";
    }
    out << ".end\n";
}

void write_bench(const Aig& aig, std::ostream& out) {
    for (int i = 0; i < aig.num_pis(); ++i) out << "INPUT(n" << (i + 1) << ")\n";
    for (int i = 0; i < aig.num_pos(); ++i) out << "OUTPUT(po" << i << ")\n";

    bool need_const = false;
    for (int i = 0; i < aig.num_pos(); ++i) {
        if (Aig::lit_node(aig.po(i)) == 0) need_const = true;
    }
    if (need_const) {
        out << "NOT_n1_tmp = NOT(n1)\n";
        out << "gnd = AND(n1, NOT_n1_tmp)\n";
        out << "vdd = NOT(gnd)\n";
    }

    std::vector<bool> need_inv(static_cast<std::size_t>(aig.num_nodes()), false);
    for (int n = aig.num_pis() + 1; n < aig.num_nodes(); ++n) {
        for (const Lit f : {aig.fanin0(n), aig.fanin1(n)}) {
            if (Aig::lit_complemented(f)) {
                need_inv[static_cast<std::size_t>(Aig::lit_node(f))] = true;
            }
        }
    }
    for (int i = 0; i < aig.num_pos(); ++i) {
        if (Aig::lit_complemented(aig.po(i))) {
            need_inv[static_cast<std::size_t>(Aig::lit_node(aig.po(i)))] = true;
        }
    }
    for (int n = 1; n < aig.num_nodes(); ++n) {
        if (need_inv[static_cast<std::size_t>(n)]) {
            out << "n" << n << "_inv = NOT(n" << n << ")\n";
        }
    }
    for (int n = aig.num_pis() + 1; n < aig.num_nodes(); ++n) {
        out << "n" << n << " = AND(" << aig_signal(aig.fanin0(n)) << ", "
            << aig_signal(aig.fanin1(n)) << ")\n";
    }
    for (int i = 0; i < aig.num_pos(); ++i) {
        out << "po" << i << " = BUFF(" << aig_signal(aig.po(i)) << ")\n";
    }
}

std::optional<BlifModel> read_blif_collapse(std::istream& in) {
    // Thin collapse layer over the structural reader (io/import.hpp): parse
    // to an AIG, then simulate every PO over the full input space.  Keeps
    // the historical optional contract for round-trip checks while the
    // structural reader owns all parsing and validation.
    ImportedCircuit circuit;
    try {
        circuit = read_blif(in);
    } catch (const ParseError&) {
        return std::nullopt;
    }
    if (circuit.input_names.size() > 16) return std::nullopt;

    BlifModel model;
    model.name = circuit.name;
    model.num_inputs = static_cast<int>(circuit.input_names.size());
    model.num_outputs = static_cast<int>(circuit.output_names.size());
    model.outputs = net::simulate_full(circuit.aig);
    return model;
}

}  // namespace mvf::io
