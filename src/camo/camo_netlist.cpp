#include "camo/camo_netlist.hpp"

#include <algorithm>
#include <cassert>

namespace mvf::camo {

int CamoNetlist::add_pi(std::string name) {
    Node n;
    n.kind = NodeKind::kPi;
    n.name = std::move(name);
    nodes_.push_back(std::move(n));
    pis_.push_back(num_nodes() - 1);
    return num_nodes() - 1;
}

int CamoNetlist::add_cell(Node cell) {
    assert(cell.kind == NodeKind::kCell);
    assert(cell.camo_cell_id >= 0 && cell.camo_cell_id < library_.num_cells());
    assert(static_cast<int>(cell.fanins.size()) ==
           library_.cell(cell.camo_cell_id).num_pins);
    assert(std::all_of(cell.fanins.begin(), cell.fanins.end(),
                       [&](int f) { return f >= 0 && f < num_nodes(); }));
    nodes_.push_back(std::move(cell));
    return num_nodes() - 1;
}

void CamoNetlist::add_po(int node, std::string name) {
    assert(node >= 0 && node < num_nodes());
    pos_.push_back(node);
    po_names_.push_back(std::move(name));
}

double CamoNetlist::area() const {
    double total = 0.0;
    for (const Node& n : nodes_) {
        if (n.kind == NodeKind::kCell) total += library_.cell(n.camo_cell_id).area;
    }
    return total;
}

int CamoNetlist::num_cells() const {
    int count = 0;
    for (const Node& n : nodes_) {
        if (n.kind == NodeKind::kCell) ++count;
    }
    return count;
}

double CamoNetlist::config_space_bits() const {
    double bits = 0.0;
    for (const Node& n : nodes_) {
        if (n.kind == NodeKind::kCell) {
            bits += library_.cell(n.camo_cell_id).config_bits();
        }
    }
    return bits;
}

std::vector<int> CamoNetlist::configuration_for_code(int code) const {
    std::vector<int> config(static_cast<std::size_t>(num_nodes()), -1);
    for (int id = 0; id < num_nodes(); ++id) {
        const Node& n = node(id);
        if (n.kind != NodeKind::kCell) continue;
        assert(code >= 0 && code < static_cast<int>(n.config_fn.size()));
        config[static_cast<std::size_t>(id)] = n.config_fn[static_cast<std::size_t>(code)];
    }
    return config;
}

bool CamoNetlist::validate() const {
    for (int id = 0; id < num_nodes(); ++id) {
        const Node& n = node(id);
        if (n.kind != NodeKind::kCell) continue;
        if (n.camo_cell_id < 0 || n.camo_cell_id >= library_.num_cells()) return false;
        const CamoCell& cell = library_.cell(n.camo_cell_id);
        if (static_cast<int>(n.fanins.size()) != cell.num_pins) return false;
        for (const int f : n.fanins) {
            if (f < 0 || f >= id) return false;
        }
        for (const int choice : n.config_fn) {
            if (choice < 0 || choice >= static_cast<int>(cell.plausible.size()))
                return false;
        }
    }
    return true;
}

}  // namespace mvf::camo
