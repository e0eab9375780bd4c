#include "map/netlist.hpp"

#include <algorithm>
#include <cassert>

namespace mvf::tech {

int Netlist::add_pi(std::string name, bool is_select) {
    Node n;
    n.kind = NodeKind::kPi;
    n.name = std::move(name);
    n.is_select = is_select;
    nodes_.push_back(std::move(n));
    pis_.push_back(num_nodes() - 1);
    return num_nodes() - 1;
}

int Netlist::add_const(bool value) {
    Node n;
    n.kind = value ? NodeKind::kConst1 : NodeKind::kConst0;
    nodes_.push_back(std::move(n));
    return num_nodes() - 1;
}

int Netlist::add_cell(int cell_id, std::vector<int> fanins) {
    assert(cell_id >= 0 && cell_id < library_.num_cells());
    assert(static_cast<int>(fanins.size()) == library_.cell(cell_id).num_inputs);
    assert(std::all_of(fanins.begin(), fanins.end(),
                       [&](int f) { return f >= 0 && f < num_nodes(); }));
    Node n;
    n.kind = NodeKind::kCell;
    n.cell_id = cell_id;
    n.fanins = std::move(fanins);
    nodes_.push_back(std::move(n));
    return num_nodes() - 1;
}

void Netlist::add_po(int node, std::string name) {
    assert(node >= 0 && node < num_nodes());
    pos_.push_back(node);
    po_names_.push_back(std::move(name));
}

int Netlist::num_selects() const {
    int n = 0;
    for (const int pi_node : pis_) {
        if (node(pi_node).is_select) ++n;
    }
    return n;
}

double Netlist::area() const {
    double total = 0.0;
    for (const Node& n : nodes_) {
        if (n.kind == NodeKind::kCell) total += library_.cell(n.cell_id).area;
    }
    return total;
}

int Netlist::num_cells() const {
    int count = 0;
    for (const Node& n : nodes_) {
        if (n.kind == NodeKind::kCell) ++count;
    }
    return count;
}

std::vector<int> Netlist::fanout_counts() const {
    std::vector<int> counts(static_cast<std::size_t>(num_nodes()), 0);
    for (const Node& n : nodes_) {
        for (const int f : n.fanins) ++counts[static_cast<std::size_t>(f)];
    }
    for (const int po : pos_) ++counts[static_cast<std::size_t>(po)];
    return counts;
}

bool Netlist::validate() const {
    for (int id = 0; id < num_nodes(); ++id) {
        const Node& n = node(id);
        if (n.kind == NodeKind::kCell) {
            if (n.cell_id < 0 || n.cell_id >= library_.num_cells()) return false;
            if (static_cast<int>(n.fanins.size()) !=
                library_.cell(n.cell_id).num_inputs)
                return false;
            for (const int f : n.fanins) {
                if (f < 0 || f >= id) return false;  // topological order
            }
        }
    }
    for (const int po : pos_) {
        if (po < 0 || po >= num_nodes()) return false;
    }
    return true;
}

}  // namespace mvf::tech
