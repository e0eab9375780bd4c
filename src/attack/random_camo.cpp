#include "attack/random_camo.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace mvf::attack {

using camo::CamoNetlist;
using tech::Netlist;

RandomCamoResult random_camouflage(const Netlist& mapped,
                                   const camo::CamoLibrary& library,
                                   double fraction, util::Rng& rng) {
    assert(mapped.num_selects() == 0);

    CamoNetlist out(library);
    std::vector<int> node_map(static_cast<std::size_t>(mapped.num_nodes()), -1);
    std::vector<bool> fixed;
    int camouflaged = 0;

    for (int id = 0; id < mapped.num_nodes(); ++id) {
        const Netlist::Node& n = mapped.node(id);
        switch (n.kind) {
            case Netlist::NodeKind::kPi:
                node_map[static_cast<std::size_t>(id)] = out.add_pi(n.name);
                fixed.resize(static_cast<std::size_t>(out.num_nodes()), false);
                break;
            case Netlist::NodeKind::kConst0:
            case Netlist::NodeKind::kConst1: {
                CamoNetlist::Node tie;
                tie.kind = CamoNetlist::NodeKind::kCell;
                tie.camo_cell_id = library.tie_id();
                tie.config_fn = {n.kind == Netlist::NodeKind::kConst1 ? 1 : 0};
                node_map[static_cast<std::size_t>(id)] = out.add_cell(std::move(tie));
                fixed.resize(static_cast<std::size_t>(out.num_nodes()), false);
                break;
            }
            case Netlist::NodeKind::kCell: {
                const int camo_id = library.camo_of_nominal(n.cell_id);
                assert(camo_id >= 0);
                CamoNetlist::Node inst;
                inst.kind = CamoNetlist::NodeKind::kCell;
                inst.camo_cell_id = camo_id;
                inst.fanins.reserve(n.fanins.size());
                for (const int f : n.fanins) {
                    inst.fanins.push_back(node_map[static_cast<std::size_t>(f)]);
                }
                inst.used_pin_mask =
                    (1u << library.cell(camo_id).num_pins) - 1;
                inst.config_fn = {0};  // plausible[0] is the nominal function
                const int nid = out.add_cell(std::move(inst));
                node_map[static_cast<std::size_t>(id)] = nid;
                fixed.resize(static_cast<std::size_t>(out.num_nodes()), false);
                const bool camo_this = rng.coin(fraction);
                fixed[static_cast<std::size_t>(nid)] = !camo_this;
                if (camo_this) ++camouflaged;
                break;
            }
        }
    }
    for (int i = 0; i < mapped.num_pos(); ++i) {
        out.add_po(node_map[static_cast<std::size_t>(mapped.po(i))],
                   mapped.po_name(i));
    }
    return {std::move(out), std::move(fixed), camouflaged};
}

camo::CamoNetlist random_camo_netlist(const camo::CamoLibrary& library,
                                      int num_pis, int num_pos, int num_cells,
                                      util::Rng& rng) {
    assert(num_cells >= num_pis && num_cells >= num_pos);

    // Cells with at least one pin (TIE would inject constants).
    std::vector<int> gate_ids;
    for (int c = 0; c < library.num_cells(); ++c) {
        if (library.cell(c).num_pins > 0) gate_ids.push_back(c);
    }
    assert(!gate_ids.empty());

    CamoNetlist out(library);
    std::vector<bool> has_fanout;
    std::vector<int> unused;  // nodes with no fanout yet
    for (int i = 0; i < num_pis; ++i) {
        unused.push_back(out.add_pi('i' + std::to_string(i)));
        has_fanout.push_back(false);
    }

    std::vector<int> cell_nodes;
    cell_nodes.reserve(static_cast<std::size_t>(num_cells));
    for (int c = 0; c < num_cells; ++c) {
        const int camo_id =
            gate_ids[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<int>(gate_ids.size()) - 1))];
        const camo::CamoCell& cell = library.cell(camo_id);
        CamoNetlist::Node inst;
        inst.kind = CamoNetlist::NodeKind::kCell;
        inst.camo_cell_id = camo_id;
        inst.used_pin_mask = (1u << cell.num_pins) - 1;
        inst.config_fn = {0};
        const int num_prior = out.num_nodes();
        // Prefer nodes without fanout so (almost) every cell ends up inside
        // the primary-output cone; a fanout backlog larger than the pins
        // still to be wired forces pool draws.
        const bool pool_pressure =
            static_cast<int>(unused.size()) >= 2 * (num_cells - c);
        for (int p = 0; p < cell.num_pins; ++p) {
            int fanin;
            if (p == 0 && c < num_pis) {
                fanin = out.pi(c);  // cover every PI
            } else if (!unused.empty() && (pool_pressure || rng.coin(0.5))) {
                fanin = unused[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<int>(unused.size()) - 1))];
            } else {
                fanin = rng.uniform_int(0, num_prior - 1);  // reconvergence
            }
            has_fanout[static_cast<std::size_t>(fanin)] = true;
            inst.fanins.push_back(fanin);
        }
        std::erase_if(unused,
                      [&](int id) { return has_fanout[static_cast<std::size_t>(id)]; });
        const int nid = out.add_cell(std::move(inst));
        cell_nodes.push_back(nid);
        unused.push_back(nid);
        has_fanout.push_back(false);
    }
    for (int q = 0; q < num_pos; ++q) {
        out.add_po(cell_nodes[static_cast<std::size_t>(num_cells - num_pos + q)],
                   'o' + std::to_string(q));
    }
    return out;
}

}  // namespace mvf::attack
