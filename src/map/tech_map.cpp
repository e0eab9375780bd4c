#include "map/tech_map.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

namespace mvf::tech {

using net::Aig;
using net::Cut;
using net::CutSet;
using net::Lit;

std::vector<int> tt16_support(std::uint16_t tt, int k) {
    static constexpr std::uint16_t kMask[4] = {0x5555, 0x3333, 0x0f0f, 0x00ff};
    static constexpr int kShift[4] = {1, 2, 4, 8};
    std::vector<int> support;
    for (int v = 0; v < k; ++v) {
        const std::uint16_t lo = static_cast<std::uint16_t>(tt & kMask[v]);
        const std::uint16_t hi =
            static_cast<std::uint16_t>((tt >> kShift[v]) & kMask[v]);
        if (lo != hi) support.push_back(v);
    }
    return support;
}

namespace {

// Evaluates the function obtained by connecting cell pin p to variable
// vars[p] of the 4-var cut space, complemented per `neg_mask`.
std::uint16_t realize_tt(const logic::TruthTable& cell_fn, int num_pins,
                         const std::array<std::uint8_t, 4>& vars,
                         std::uint32_t neg_mask) {
    std::uint16_t out = 0;
    for (std::uint32_t m = 0; m < 16; ++m) {
        std::uint32_t pins = 0;
        for (int p = 0; p < num_pins; ++p) {
            const std::uint32_t bit =
                ((m >> vars[static_cast<std::size_t>(p)]) & 1) ^ ((neg_mask >> p) & 1);
            pins |= bit << p;
        }
        if (cell_fn.bit(pins)) out |= static_cast<std::uint16_t>(1u << m);
    }
    return out;
}

}  // namespace

MatchCache::MatchCache(GateLibrary library) : lib_(std::move(library)) {
    // Every realization in the order a per-function search finds it: cell
    // id, then pin-to-leaf assignment in lexicographic order, then negation
    // mask.  A stable sort by function keeps that order within a function.
    // A realization whose function ignores some of its leaves is not filed:
    // a search over the function's support would never produce it.
    std::vector<std::pair<std::uint16_t, CellMatch>> found;
    for (int cell_id = 0; cell_id < lib_.num_cells(); ++cell_id) {
        const GateCell& cell = lib_.cell(cell_id);
        const int k = cell.num_inputs;
        if (k == 0 || k > 4) continue;
        // Base-4 counting over k digits visits the k-tuples of leaf
        // positions lexicographically; tuples that repeat a leaf are skipped.
        for (std::uint32_t code = 0; code < (1u << (2 * k)); ++code) {
            std::array<std::uint8_t, 4> vars{};
            std::uint32_t used = 0;
            for (int p = 0; p < k; ++p) {
                const std::uint32_t v = (code >> (2 * (k - 1 - p))) & 3;
                used |= 1u << v;
                vars[static_cast<std::size_t>(p)] = static_cast<std::uint8_t>(v);
            }
            if (std::popcount(used) != k) continue;
            for (std::uint32_t neg = 0; neg < (1u << k); ++neg) {
                const std::uint16_t tt = realize_tt(cell.function, k, vars, neg);
                if (static_cast<int>(tt16_support(tt, 4).size()) != k) continue;
                CellMatch m;
                m.cell_id = cell_id;
                m.pin_leaf_pos = vars;
                for (int p = 0; p < k; ++p) {
                    m.pin_neg[static_cast<std::size_t>(p)] = (neg >> p) & 1;
                }
                found.emplace_back(tt, m);
            }
        }
    }
    std::stable_sort(found.begin(), found.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    first_.assign((1u << 16) + 1, 0);
    matches_.reserve(found.size());
    for (const auto& [tt, m] : found) {
        ++first_[tt + 1u];
        matches_.push_back(m);
    }
    for (std::size_t i = 1; i < first_.size(); ++i) first_[i] += first_[i - 1];
}

const MatchCache& MatchCache::standard() {
    static const MatchCache cache(GateLibrary::standard());
    return cache;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Choice {
    bool valid = false;
    bool via_inverter = false;  ///< realize from the opposite phase + INV
    Cut cut;
    CellMatch match;
};

struct Mapper {
    const Aig& aig;
    const GateLibrary& lib;
    const MatchCache& cache;
    CutSet cut_set;

    std::vector<std::array<double, 2>> cost;    // [node][phase]
    std::vector<std::array<Choice, 2>> choice;  // [node][phase]
    std::vector<double> refs;                   // fanout estimate (area flow)

    Mapper(const Aig& a, const MatchCache& c, const TechMapParams& p)
        : aig(a), lib(c.library()), cache(c), cut_set(a, p.cuts) {
        const auto counts = aig.reference_counts();
        refs.assign(counts.size(), 1.0);
        for (std::size_t i = 0; i < counts.size(); ++i) {
            refs[i] = std::max(1, counts[i]);
        }
    }

    void compute_costs() {
        const int n_nodes = aig.num_nodes();
        cost.assign(static_cast<std::size_t>(n_nodes), {kInf, kInf});
        choice.assign(static_cast<std::size_t>(n_nodes), {});

        cost[0] = {0.0, 0.0};  // constants become tie nodes outside cells
        for (int i = 0; i < aig.num_pis(); ++i) {
            const auto node = static_cast<std::size_t>(i + 1);
            cost[node][0] = 0.0;
            cost[node][1] = lib.inv_area();
            choice[node][1].valid = true;
            choice[node][1].via_inverter = true;
        }

        for (int n = aig.num_pis() + 1; n < aig.num_nodes(); ++n) {
            const auto idx = static_cast<std::size_t>(n);
            for (const Cut& cut : cut_set.cuts_of(n)) {
                if (cut.size() == 1 && cut.leaves()[0] == n) continue;  // trivial
                for (int phase = 0; phase < 2; ++phase) {
                    const std::uint16_t target =
                        phase ? static_cast<std::uint16_t>(~cut.function)
                              : cut.function;
                    for (const CellMatch& m : cache.matches(target)) {
                        const double c = match_cost(cut, m);
                        if (c < cost[idx][static_cast<std::size_t>(phase)]) {
                            cost[idx][static_cast<std::size_t>(phase)] = c;
                            auto& ch = choice[idx][static_cast<std::size_t>(phase)];
                            ch.valid = true;
                            ch.via_inverter = false;
                            ch.cut = cut;
                            ch.match = m;
                        }
                    }
                }
            }
            // Phase relaxation through inverters (two rounds settle both).
            for (int round = 0; round < 2; ++round) {
                for (int phase = 0; phase < 2; ++phase) {
                    const double via =
                        cost[idx][static_cast<std::size_t>(1 - phase)] + lib.inv_area();
                    if (via < cost[idx][static_cast<std::size_t>(phase)]) {
                        cost[idx][static_cast<std::size_t>(phase)] = via;
                        auto& ch = choice[idx][static_cast<std::size_t>(phase)];
                        ch.valid = true;
                        ch.via_inverter = true;
                    }
                }
            }
            assert(cost[idx][0] < kInf && cost[idx][1] < kInf &&
                   "every AND node must be coverable by the library");
        }
    }

    double match_cost(const Cut& cut, const CellMatch& m) const {
        const GateCell& cell = lib.cell(m.cell_id);
        double c = cell.area;
        for (int p = 0; p < cell.num_inputs; ++p) {
            const int leaf_pos = m.pin_leaf_pos[static_cast<std::size_t>(p)];
            const int leaf = cut.leaves()[static_cast<std::size_t>(leaf_pos)];
            const int ph = m.pin_neg[static_cast<std::size_t>(p)] ? 1 : 0;
            c += cost[static_cast<std::size_t>(leaf)][static_cast<std::size_t>(ph)] /
                 refs[static_cast<std::size_t>(leaf)];
        }
        return c;
    }

    Netlist extract(const std::vector<std::string>& pi_names,
                    const std::vector<bool>& pi_is_select,
                    std::vector<std::array<double, 2>>* usage) {
        Netlist netlist(lib);
        std::unordered_map<std::uint64_t, int> built;  // (node<<1|phase) -> id
        std::array<int, 2> const_nodes{-1, -1};

        std::vector<int> pi_ids(static_cast<std::size_t>(aig.num_pis()));
        for (int i = 0; i < aig.num_pis(); ++i) {
            std::string name = i < static_cast<int>(pi_names.size())
                                   ? pi_names[static_cast<std::size_t>(i)]
                                   : "i" + std::to_string(i);
            const bool sel = i < static_cast<int>(pi_is_select.size()) &&
                             pi_is_select[static_cast<std::size_t>(i)];
            pi_ids[static_cast<std::size_t>(i)] = netlist.add_pi(std::move(name), sel);
        }

        const auto build = [&](auto&& self, int node, int phase) -> int {
            const std::uint64_t key =
                (static_cast<std::uint64_t>(node) << 1) | static_cast<unsigned>(phase);
            const auto it = built.find(key);
            if (it != built.end()) return it->second;
            if (usage) {
                (*usage)[static_cast<std::size_t>(node)]
                        [static_cast<std::size_t>(phase)] += 1.0;
            }

            int id = -1;
            if (aig.is_const0(node)) {
                auto& cn = const_nodes[static_cast<std::size_t>(phase)];
                if (cn < 0) cn = netlist.add_const(phase != 0);
                id = cn;
            } else if (aig.is_pi(node)) {
                if (phase == 0) {
                    id = pi_ids[static_cast<std::size_t>(node - 1)];
                } else {
                    const int pos = self(self, node, 0);
                    id = netlist.add_cell(lib.inv_id(), {pos});
                }
            } else {
                const Choice& ch = choice[static_cast<std::size_t>(node)]
                                         [static_cast<std::size_t>(phase)];
                assert(ch.valid);
                if (ch.via_inverter) {
                    const int other = self(self, node, 1 - phase);
                    id = netlist.add_cell(lib.inv_id(), {other});
                } else {
                    const GateCell& cell = lib.cell(ch.match.cell_id);
                    std::vector<int> fanins(static_cast<std::size_t>(cell.num_inputs));
                    for (int p = 0; p < cell.num_inputs; ++p) {
                        const int leaf_pos =
                            ch.match.pin_leaf_pos[static_cast<std::size_t>(p)];
                        const int leaf =
                            ch.cut.leaves()[static_cast<std::size_t>(leaf_pos)];
                        const int ph =
                            ch.match.pin_neg[static_cast<std::size_t>(p)] ? 1 : 0;
                        fanins[static_cast<std::size_t>(p)] = self(self, leaf, ph);
                    }
                    id = netlist.add_cell(ch.match.cell_id, std::move(fanins));
                }
            }
            built.emplace(key, id);
            return id;
        };

        for (int i = 0; i < aig.num_pos(); ++i) {
            const Lit po = aig.po(i);
            const int id =
                build(build, Aig::lit_node(po), Aig::lit_complemented(po) ? 1 : 0);
            netlist.add_po(id, "o" + std::to_string(i));
        }
        return netlist;
    }
};

}  // namespace

Netlist tech_map(const net::Aig& aig, const MatchCache& cache,
                 const TechMapParams& params,
                 const std::vector<std::string>& pi_names,
                 const std::vector<bool>& pi_is_select) {
    Mapper mapper(aig, cache, params);
    mapper.compute_costs();

    std::vector<std::array<double, 2>> usage(
        static_cast<std::size_t>(aig.num_nodes()), {0.0, 0.0});
    Netlist best = mapper.extract(pi_names, pi_is_select, &usage);

    for (int iter = 0; iter < params.recovery_iterations; ++iter) {
        // Area recovery: redo the DP with reference estimates taken from the
        // actual cover usage, which sharpens the area-flow division.
        for (std::size_t i = 0; i < usage.size(); ++i) {
            mapper.refs[i] = std::max(1.0, usage[i][0] + usage[i][1]);
        }
        mapper.compute_costs();
        std::vector<std::array<double, 2>> next_usage(
            static_cast<std::size_t>(aig.num_nodes()), {0.0, 0.0});
        Netlist candidate = mapper.extract(pi_names, pi_is_select, &next_usage);
        if (candidate.area() < best.area()) {
            best = std::move(candidate);
            usage = std::move(next_usage);
        } else {
            break;
        }
    }
    return best;
}

}  // namespace mvf::tech
