// cegar-rand: serial oracle_attack runs to a verdict on random fully
// camouflaged netlists (bench_oracle_attack's rand shapes, 12-16 PIs),
// default solver configuration, survivors counted by capped enumeration so
// the counting tail stays small.  No synthesis runs here: SAT-core,
// encoding and CEGAR-loop changes show on this workload, flow changes
// should not.
//
// Per-instance cost is heavy-tailed across generator seeds (at 12 PIs one
// draw in four runs past 4 s, some past 100 s), so the instances come from
// a catalogue screened into strata of similar cost, and the workload seed
// draws one instance per stratum and the op order.  Every pass holds the
// hard instance (124 CEGAR iterations, where propagation against the
// accumulated clause database dominates) and four mid ones, so every seed's
// pass costs about the same.  Iterations are never capped.

#include <string>
#include <vector>

#include "attack_ops.hpp"
#include "map/gate_library.hpp"
#include "sim/netlist_sim.hpp"

namespace perfbench {
namespace {

using mvf::attack::OracleAttackResult;

// rng_seed = generator seed * 977 + PIs, as bench_oracle_attack draws.
constexpr NetlistShape shape(int pis, int pos, int cells, std::uint64_t seed) {
    return {pis, pos, cells, seed * 977 + static_cast<std::uint64_t>(pis)};
}

// Strata of similar cost; a pass draws one instance from each.  The times
// are the median of three rounds that interleaved every catalogue instance,
// on a 4-core x86-64 host in a slow state (the hard instance took 2.0 s in
// a quiet one); the members of a stratum lie within 3% of each other.
const std::vector<std::vector<NetlistShape>> kStrata = {
    // hard: 124 iterations, 2.9 s, 28 MiB peak resident memory.  One
    // instance, in every pass: swapping in a hard instance of the same
    // measured cost still moved the slowest op by 20% from seed to seed.
    {shape(13, 3, 25, 8)},
    // mid: 43-84 iterations.  Four strata set apart, so that the median op
    // is the 0.64 s one and op_tail_s the 0.73 s one.
    {shape(14, 3, 26, 3), shape(14, 3, 26, 4)},                        // 0.37-0.38 s
    {shape(12, 3, 24, 25), shape(16, 4, 28, 3)},                       // 0.48-0.49 s
    {shape(12, 3, 24, 6), shape(14, 3, 26, 19), shape(13, 3, 25, 39),
     shape(16, 4, 28, 7)},                                             // 0.63-0.65 s
    {shape(14, 3, 26, 11), shape(12, 3, 24, 24), shape(13, 3, 25, 10),
     shape(14, 3, 26, 22)},                                            // 0.73 s
};

std::string shape_name(const NetlistShape& s) {
    return "rand" + std::to_string(s.pis) + "/" + std::to_string(s.rng_seed);
}

class CegarRand final : public Workload {
public:
    explicit CegarRand(const Options& options) : workdir_(options.workdir) {
        const mvf::camo::CamoLibrary library =
            mvf::camo::CamoLibrary::from_gate_library(
                mvf::tech::GateLibrary::standard());
        Draw draw(options.seed);
        std::vector<NetlistShape> picked;
        for (const std::vector<NetlistShape>& stratum : kStrata) {
            picked.push_back(stratum[draw.below(stratum.size())]);
        }
        // Seeded op order, so the hard instance does not always run first.
        for (std::size_t i = picked.size() - 1; i > 0; --i) {
            std::swap(picked[i], picked[draw.below(i + 1)]);
        }
        for (const NetlistShape& s : picked) {
            instances_.push_back(make_instance(library, s, shape_name(s)));
        }
        params_.count_mode = mvf::attack::CountMode::kEnumerate;
        params_.max_survivors = 256;
        // Warm-up outside the timed window: lazy statics of the attack path.
        const AttackInstance warm =
            make_instance(library, shape(12, 3, 24, 1), "warm-up");
        mvf::attack::SimOracle chip(warm.netlist, warm.hidden);
        mvf::attack::oracle_attack(warm.netlist, chip, params_);
    }

    Pass run_pass(bool traced) override {
        std::vector<AttackOp> ops;
        Pass pass = run_attack_pass(instances_, params_, traced, workdir_, &ops);
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (!ops[i].error.empty()) continue;
            const OracleAttackResult& r = ops[i].result;
            const AttackInstance& inst = instances_[i];
            const bool converged =
                r.status == OracleAttackResult::Status::kSolved ||
                r.status == OracleAttackResult::Status::kSurvivorLimit;
            if (!converged || r.witness_config.empty()) {
                pass.failures.push_back(inst.name + ": no verdict (status " +
                                        std::string(mvf::attack::attack_status_name(
                                            r.status)) + ")");
            } else if (mvf::sim::simulate_camo_full(inst.netlist, r.witness_config) !=
                       mvf::sim::simulate_camo_full(inst.netlist, inst.hidden)) {
                pass.failures.push_back(
                    inst.name + ": witness configuration differs from the hidden "
                                "one on some input");
            }
        }
        return pass;
    }

    std::vector<Extra> extras(const Pass& pass) const override {
        return {{"oracle_queries", pass.counters.at("oracle_queries"), "count"}};
    }

private:
    std::string workdir_;
    std::vector<AttackInstance> instances_;
    mvf::attack::OracleAttackParams params_;
};

}  // namespace

std::unique_ptr<Workload> make_cegar_rand(const Options& options) {
    return std::make_unique<CegarRand>(options);
}

}  // namespace perfbench
