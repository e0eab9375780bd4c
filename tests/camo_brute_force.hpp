#pragma once
// Brute-force survivor count shared by the counting differentials
// (test_count, test_count_fuzz): the independent reference that the
// attack's exact and enumerated counts are checked against.

#include <cstdint>
#include <optional>
#include <vector>

#include "camo/camo_netlist.hpp"
#include "logic/truth_table.hpp"
#include "sim/netlist_sim.hpp"

namespace mvf::testing_support {

/// Counts the configurations whose full-input-space simulation equals
/// `targets`; nullopt when the configuration space exceeds max_configs.
/// A cell marked in `fixed` is known to be nominal: like sat::CnfBuilder,
/// it is pinned to its true function, plausible index config_fn[0].
inline std::optional<std::uint64_t> brute_force_count(
    const camo::CamoNetlist& nl, const std::vector<logic::TruthTable>& targets,
    const std::vector<bool>& fixed, std::uint64_t max_configs) {
    using Node = camo::CamoNetlist::Node;
    std::vector<int> cells;  // the free cells, enumerated below
    std::vector<int> config(static_cast<std::size_t>(nl.num_nodes()), -1);
    std::uint64_t space = 1;
    for (int id = 0; id < nl.num_nodes(); ++id) {
        const Node& n = nl.node(id);
        if (n.kind != camo::CamoNetlist::NodeKind::kCell) continue;
        if (fixed[static_cast<std::size_t>(id)]) {
            config[static_cast<std::size_t>(id)] =
                n.config_fn.empty() ? 0 : n.config_fn[0];
            continue;
        }
        cells.push_back(id);
        config[static_cast<std::size_t>(id)] = 0;
        space *= nl.library().cell(n.camo_cell_id).plausible.size();
        if (space > max_configs) return std::nullopt;
    }
    std::uint64_t count = 0;
    while (true) {
        if (sim::simulate_camo_full(nl, config) == targets) ++count;
        std::size_t i = 0;
        for (; i < cells.size(); ++i) {
            const int id = cells[i];
            const int limit = static_cast<int>(
                nl.library().cell(nl.node(id).camo_cell_id).plausible.size());
            if (++config[static_cast<std::size_t>(id)] < limit) break;
            config[static_cast<std::size_t>(id)] = 0;
        }
        if (i == cells.size()) return count;
    }
}

}  // namespace mvf::testing_support
