#pragma once
// Oracle-guided attacks as benchmark ops, shared by cegar-rand and
// count-rand: one op is one attack::oracle_attack run to a verdict on a
// random fully camouflaged netlist.

#include <cstdint>
#include <string>
#include <vector>

#include "attack/oracle.hpp"
#include "attack/oracle_attack.hpp"
#include "camo/camo_netlist.hpp"
#include "harness.hpp"

namespace perfbench {

/// One catalogue entry: the generator shape and seed of a netlist from
/// attack::random_camo_netlist.
struct NetlistShape {
    int pis = 0;
    int pos = 0;
    int cells = 0;
    std::uint64_t rng_seed = 0;  ///< util::Rng seed handed to the generator
};

/// A generated instance and its hidden configuration (select code 0).
struct AttackInstance {
    std::string name;
    mvf::camo::CamoNetlist netlist;
    std::vector<int> hidden;
};

AttackInstance make_instance(const mvf::camo::CamoLibrary& library,
                             const NetlistShape& shape, std::string name);

/// Benchmark-side oracle decorator: times every answer and counts patterns,
/// so the oracle's share of an attack is measured from outside.
class TimedOracle final : public mvf::attack::OracleDecorator {
public:
    using OracleDecorator::OracleDecorator;
    std::vector<bool> query(const std::vector<bool>& inputs) override;
    std::vector<std::uint64_t> query_block(
        const std::vector<std::uint64_t>& inputs, int count) override;

    double seconds = 0.0;
    std::uint64_t patterns = 0;
};

/// One attack op's outcome: the result, or what the attack threw.
struct AttackOp {
    mvf::attack::OracleAttackResult result;
    std::string error;  ///< empty unless the attack threw
};

/// Runs every instance once.  Untraced ops query a bare SimOracle; traced
/// ops go through TimedOracle with an obs::TraceSink installed, and fill
/// the attack/sat/count layer metrics.  ops receives one entry per
/// instance; an op that threw is already counted in the pass's failures.
Pass run_attack_pass(const std::vector<AttackInstance>& instances,
                     const mvf::attack::OracleAttackParams& params,
                     bool traced, const std::string& workdir,
                     std::vector<AttackOp>* ops);

}  // namespace perfbench
