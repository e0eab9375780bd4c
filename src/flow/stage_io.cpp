#include "flow/stage_io.hpp"

#include <utility>

#include "attack/adversary.hpp"
#include "attack/oracle.hpp"

namespace mvf::flow {

namespace {

report::Json int_vector_json(const std::vector<int>& v) {
    report::Json a = report::Json::array();
    for (const int x : v) a.push_back(x);
    return a;
}

std::vector<int> int_vector_from_json(const report::Json& j) {
    std::vector<int> out;
    out.reserve(j.size());
    for (const report::Json& x : j.items()) {
        out.push_back(static_cast<int>(x.as_int()));
    }
    return out;
}

report::Json perms_json(const std::vector<std::vector<int>>& perms) {
    report::Json a = report::Json::array();
    for (const std::vector<int>& p : perms) a.push_back(int_vector_json(p));
    return a;
}

std::vector<std::vector<int>> perms_from_json(const report::Json& j) {
    std::vector<std::vector<int>> out;
    out.reserve(j.size());
    for (const report::Json& p : j.items()) {
        out.push_back(int_vector_from_json(p));
    }
    return out;
}

report::Json double_vector_json(const std::vector<double>& v) {
    report::Json a = report::Json::array();
    for (const double x : v) a.push_back(x);
    return a;
}

std::vector<double> double_vector_from_json(const report::Json& j) {
    std::vector<double> out;
    out.reserve(j.size());
    for (const report::Json& x : j.items()) out.push_back(x.as_number());
    return out;
}

report::Json ga_result_json(const ga::GaResult& ga) {
    report::Json j = report::Json::object();
    j.set("input_perms", perms_json(ga.best.input_perms));
    j.set("output_perms", perms_json(ga.best.output_perms));
    j.set("best_area", ga.best_area);
    j.set("best_per_generation",
          double_vector_json(ga.history.best_per_generation));
    j.set("avg_per_generation",
          double_vector_json(ga.history.avg_per_generation));
    j.set("evaluations", ga.history.evaluations);
    return j;
}

ga::GaResult ga_result_from_json(const report::Json& j) {
    ga::GaResult ga;
    ga.best.input_perms = perms_from_json(j.at("input_perms"));
    ga.best.output_perms = perms_from_json(j.at("output_perms"));
    ga.best_area = j.at("best_area").as_number();
    ga.history.best_per_generation =
        double_vector_from_json(j.at("best_per_generation"));
    ga.history.avg_per_generation =
        double_vector_from_json(j.at("avg_per_generation"));
    ga.history.evaluations = static_cast<int>(j.at("evaluations").as_int());
    return ga;
}

}  // namespace

report::Json netlist_to_json(const tech::Netlist& n) {
    report::Json nodes = report::Json::array();
    for (int id = 0; id < n.num_nodes(); ++id) {
        const tech::Netlist::Node& node = n.node(id);
        report::Json o = report::Json::object();
        switch (node.kind) {
            case tech::Netlist::NodeKind::kConst0:
                o.set("k", "c0");
                break;
            case tech::Netlist::NodeKind::kConst1:
                o.set("k", "c1");
                break;
            case tech::Netlist::NodeKind::kPi:
                o.set("k", "pi");
                o.set("name", node.name);
                o.set("sel", node.is_select);
                break;
            case tech::Netlist::NodeKind::kCell:
                o.set("k", "cell");
                o.set("cell", node.cell_id);
                o.set("in", int_vector_json(node.fanins));
                break;
        }
        nodes.push_back(std::move(o));
    }
    report::Json pos = report::Json::array();
    for (int i = 0; i < n.num_pos(); ++i) {
        report::Json o = report::Json::object();
        o.set("node", n.po(i));
        o.set("name", n.po_name(i));
        pos.push_back(std::move(o));
    }
    report::Json j = report::Json::object();
    j.set("nodes", std::move(nodes));
    j.set("pos", std::move(pos));
    return j;
}

tech::Netlist netlist_from_json(const report::Json& j,
                                tech::GateLibrary library) {
    tech::Netlist n(std::move(library));
    // Builders append sequentially, so re-adding in id order reproduces the
    // exact node numbering (fanins reference earlier ids).
    for (const report::Json& o : j.at("nodes").items()) {
        const std::string& kind = o.at("k").as_string();
        if (kind == "c0") {
            n.add_const(false);
        } else if (kind == "c1") {
            n.add_const(true);
        } else if (kind == "pi") {
            n.add_pi(o.at("name").as_string(), o.at("sel").as_bool());
        } else if (kind == "cell") {
            n.add_cell(static_cast<int>(o.at("cell").as_int()),
                       int_vector_from_json(o.at("in")));
        } else {
            throw report::JsonError("netlist snapshot: unknown node kind \"" +
                                    kind + "\"");
        }
    }
    for (const report::Json& o : j.at("pos").items()) {
        n.add_po(static_cast<int>(o.at("node").as_int()),
                 o.at("name").as_string());
    }
    return n;
}

report::Json camo_netlist_to_json(const camo::CamoNetlist& n) {
    report::Json nodes = report::Json::array();
    for (int id = 0; id < n.num_nodes(); ++id) {
        const camo::CamoNetlist::Node& node = n.node(id);
        report::Json o = report::Json::object();
        if (node.kind == camo::CamoNetlist::NodeKind::kPi) {
            o.set("k", "pi");
            o.set("name", node.name);
        } else {
            o.set("k", "cell");
            o.set("cell", node.camo_cell_id);
            o.set("in", int_vector_json(node.fanins));
            o.set("mask", static_cast<std::uint64_t>(node.used_pin_mask));
            o.set("cfg", int_vector_json(node.config_fn));
        }
        nodes.push_back(std::move(o));
    }
    report::Json pos = report::Json::array();
    for (int i = 0; i < n.num_pos(); ++i) {
        report::Json o = report::Json::object();
        o.set("node", n.po(i));
        o.set("name", n.po_name(i));
        pos.push_back(std::move(o));
    }
    report::Json j = report::Json::object();
    j.set("nodes", std::move(nodes));
    j.set("pos", std::move(pos));
    return j;
}

camo::CamoNetlist camo_netlist_from_json(const report::Json& j,
                                         camo::CamoLibrary library) {
    camo::CamoNetlist n(std::move(library));
    for (const report::Json& o : j.at("nodes").items()) {
        const std::string& kind = o.at("k").as_string();
        if (kind == "pi") {
            n.add_pi(o.at("name").as_string());
        } else if (kind == "cell") {
            camo::CamoNetlist::Node cell;
            cell.kind = camo::CamoNetlist::NodeKind::kCell;
            cell.camo_cell_id = static_cast<int>(o.at("cell").as_int());
            cell.fanins = int_vector_from_json(o.at("in"));
            cell.used_pin_mask =
                static_cast<std::uint32_t>(o.at("mask").as_uint());
            cell.config_fn = int_vector_from_json(o.at("cfg"));
            n.add_cell(std::move(cell));
        } else {
            throw report::JsonError(
                "camo netlist snapshot: unknown node kind \"" + kind + "\"");
        }
    }
    for (const report::Json& o : j.at("pos").items()) {
        n.add_po(static_cast<int>(o.at("node").as_int()),
                 o.at("name").as_string());
    }
    return n;
}

report::Json snapshot_context(const FlowContext& ctx) {
    const FlowResult& r = ctx.result;
    report::Json j = report::Json::object();
    j.set("random_avg", r.random_avg);
    j.set("random_best", r.random_best);
    j.set("ga_area", r.ga_area);
    j.set("ga_tm_area", r.ga_tm_area);
    j.set("random_areas", double_vector_json(r.random_areas));
    j.set("verified", r.verified);
    j.set("ga", ga_result_json(r.ga));
    report::Json cs = report::Json::object();
    cs.set("area", r.camo_stats.area);
    cs.set("num_cells", r.camo_stats.num_cells);
    cs.set("config_space_bits", r.camo_stats.config_space_bits);
    cs.set("selects_eliminated", r.camo_stats.selects_eliminated);
    j.set("camo_stats", std::move(cs));
    if (r.synthesized) {
        j.set("synthesized", netlist_to_json(*r.synthesized));
    }
    if (r.camouflaged) {
        j.set("camouflaged", camo_netlist_to_json(*r.camouflaged));
    }
    if (!r.fixed_nominal.empty()) {
        j.set("fixed_nominal", attack::bits_to_string(r.fixed_nominal));
    }
    report::Json attacks = report::Json::array();
    for (const attack::AdversaryReport& a : r.attack_reports) {
        attacks.push_back(a.to_json());
    }
    j.set("attack_reports", std::move(attacks));
    j.set("has_best_spec", ctx.best_spec.has_value());
    return j;
}

void restore_context(const report::Json& snapshot, FlowContext* ctx) {
    FlowResult r;
    r.random_avg = snapshot.at("random_avg").as_number();
    r.random_best = snapshot.at("random_best").as_number();
    r.ga_area = snapshot.at("ga_area").as_number();
    r.ga_tm_area = snapshot.at("ga_tm_area").as_number();
    r.random_areas = double_vector_from_json(snapshot.at("random_areas"));
    r.verified = snapshot.at("verified").as_bool();
    r.ga = ga_result_from_json(snapshot.at("ga"));
    const report::Json& cs = snapshot.at("camo_stats");
    r.camo_stats.area = cs.at("area").as_number();
    r.camo_stats.num_cells = static_cast<int>(cs.at("num_cells").as_int());
    r.camo_stats.config_space_bits = cs.at("config_space_bits").as_number();
    r.camo_stats.selects_eliminated =
        static_cast<int>(cs.at("selects_eliminated").as_int());
    if (const report::Json* s = snapshot.find("synthesized")) {
        r.synthesized = netlist_from_json(*s, ctx->flow->gate_library());
    }
    if (const report::Json* c = snapshot.find("camouflaged")) {
        r.camouflaged = camo_netlist_from_json(*c, ctx->flow->camo_library());
    }
    if (const report::Json* f = snapshot.find("fixed_nominal")) {
        // One flag per camouflaged-netlist node; anything else misses.
        const int nodes = r.camouflaged ? r.camouflaged->num_nodes() : 0;
        r.fixed_nominal = attack::bits_from_string(
            f->as_string(), static_cast<std::size_t>(nodes), "fixed_nominal");
    }
    for (const report::Json& a : snapshot.at("attack_reports").items()) {
        r.attack_reports.push_back(attack::AdversaryReport::from_json(a));
    }
    ctx->result = std::move(r);
    if (snapshot.at("has_best_spec").as_bool()) {
        ctx->best_spec.emplace(*ctx->functions, ctx->result.ga.best);
    } else {
        ctx->best_spec.reset();
    }
}

}  // namespace mvf::flow
