#include "flow/merged_spec.hpp"

#include <algorithm>
#include <cassert>

#include "synth/aig_build.hpp"
#include "synth/extract.hpp"

namespace mvf::flow {

using logic::TruthTable;
using net::Aig;
using net::Lit;

ViableFunction from_sbox(const sbox::Sbox& s) {
    ViableFunction f;
    f.name = s.name;
    f.num_inputs = s.num_inputs;
    f.num_outputs = s.num_outputs;
    f.outputs = s.output_tts();
    return f;
}

std::vector<ViableFunction> from_sboxes(const std::vector<sbox::Sbox>& sboxes) {
    std::vector<ViableFunction> fns;
    fns.reserve(sboxes.size());
    for (const auto& s : sboxes) fns.push_back(from_sbox(s));
    return fns;
}

int MergedSpec::num_selects(int num_functions) {
    int s = 0;
    while ((1 << s) < num_functions) ++s;
    return s;
}

MergedSpec::MergedSpec(std::vector<ViableFunction> functions,
                       ga::PinAssignment assignment)
    : functions_(std::move(functions)), assignment_(std::move(assignment)) {
    assert(!functions_.empty());
    assert(assignment_.num_functions() == num_functions());
    assert(std::all_of(functions_.begin(), functions_.end(), [&](const auto& f) {
        return f.num_inputs == num_inputs() && f.num_outputs == num_outputs();
    }));
    assert(assignment_.valid());
}

net::Aig MergedSpec::build_aig(BuildStyle style) const {
    const int m = num_inputs();
    const int r = num_outputs();
    const int s = select_count();
    const int n = num_functions();
    Aig aig(m + s);

    std::vector<Lit> selects(static_cast<std::size_t>(s));
    for (int j = 0; j < s; ++j) selects[static_cast<std::size_t>(j)] = aig.pi(m + j);

    // cones[k][q]: function k's output routed to merged position q.
    std::vector<std::vector<Lit>> cones(
        static_cast<std::size_t>(n),
        std::vector<Lit>(static_cast<std::size_t>(r), Aig::kConst0));

    if (style == BuildStyle::kFactored) {
        for (int k = 0; k < n; ++k) {
            std::vector<Lit> inputs(static_cast<std::size_t>(m));
            for (int j = 0; j < m; ++j) {
                inputs[static_cast<std::size_t>(j)] = aig.pi(
                    assignment_.input_perms[static_cast<std::size_t>(k)]
                                           [static_cast<std::size_t>(j)]);
            }
            for (int j = 0; j < r; ++j) {
                const int q = assignment_.output_perms[static_cast<std::size_t>(k)]
                                                      [static_cast<std::size_t>(j)];
                cones[static_cast<std::size_t>(k)][static_cast<std::size_t>(q)] =
                    synth::build_from_tt(
                        functions_[static_cast<std::size_t>(k)]
                            .outputs[static_cast<std::size_t>(j)],
                        inputs, &aig);
            }
        }
    } else {
        // Joint build: express every cone in the shared-input space (the pin
        // assignment becomes a table permutation) and extract common
        // divisors across all of them.
        std::vector<Lit> inputs(static_cast<std::size_t>(m));
        for (int j = 0; j < m; ++j) inputs[static_cast<std::size_t>(j)] = aig.pi(j);
        std::vector<TruthTable> all;
        all.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(r));
        for (int k = 0; k < n; ++k) {
            for (int j = 0; j < r; ++j) {
                all.push_back(
                    functions_[static_cast<std::size_t>(k)]
                        .outputs[static_cast<std::size_t>(j)]
                        .permute(assignment_.input_perms[static_cast<std::size_t>(k)]));
            }
        }
        const std::vector<Lit> outs = synth::build_shared_extract(all, inputs, &aig);
        for (int k = 0; k < n; ++k) {
            for (int j = 0; j < r; ++j) {
                const int q = assignment_.output_perms[static_cast<std::size_t>(k)]
                                                      [static_cast<std::size_t>(j)];
                cones[static_cast<std::size_t>(k)][static_cast<std::size_t>(q)] =
                    outs[static_cast<std::size_t>(k) * static_cast<std::size_t>(r) +
                         static_cast<std::size_t>(j)];
            }
        }
    }

    for (int q = 0; q < r; ++q) {
        std::vector<Lit> data(std::size_t{1} << s);
        for (std::uint32_t c = 0; c < data.size(); ++c) {
            const int k = std::min<int>(static_cast<int>(c), n - 1);
            data[c] = cones[static_cast<std::size_t>(k)][static_cast<std::size_t>(q)];
        }
        aig.add_po(synth::build_mux_tree(selects, data, &aig));
    }
    return aig;
}

std::vector<TruthTable> MergedSpec::expected_outputs_for_code(int code) const {
    const int m = num_inputs();
    const int r = num_outputs();
    const int k = std::min(code, num_functions() - 1);
    const auto& fn = functions_[static_cast<std::size_t>(k)];

    std::vector<TruthTable> outs(static_cast<std::size_t>(r), TruthTable(m));
    for (int j = 0; j < r; ++j) {
        const int q = assignment_.output_perms[static_cast<std::size_t>(k)]
                                              [static_cast<std::size_t>(j)];
        outs[static_cast<std::size_t>(q)] = fn.outputs[static_cast<std::size_t>(j)]
            .permute(assignment_.input_perms[static_cast<std::size_t>(k)]);
    }
    return outs;
}

std::vector<TruthTable> MergedSpec::reference_tts() const {
    const int m = num_inputs();
    const int r = num_outputs();
    const int s = select_count();
    const int nv = m + s;

    // Select-code indicator minterms.
    std::vector<TruthTable> code_indicator(std::size_t{1} << s,
                                           TruthTable::ones(nv));
    for (std::uint32_t c = 0; c < code_indicator.size(); ++c) {
        for (int j = 0; j < s; ++j) {
            const TruthTable sel = TruthTable::var(m + j, nv);
            code_indicator[c] &= ((c >> j) & 1) ? sel : ~sel;
        }
    }

    std::vector<TruthTable> ref(static_cast<std::size_t>(r), TruthTable(nv));
    for (std::uint32_t c = 0; c < (1u << s); ++c) {
        const std::vector<TruthTable> outs =
            expected_outputs_for_code(static_cast<int>(c));
        for (int q = 0; q < r; ++q) {
            ref[static_cast<std::size_t>(q)] |=
                code_indicator[c] & outs[static_cast<std::size_t>(q)].extend(nv);
        }
    }
    return ref;
}

std::vector<std::string> MergedSpec::pi_names() const {
    std::vector<std::string> names;
    names.reserve(static_cast<std::size_t>(num_inputs() + select_count()));
    for (int i = 0; i < num_inputs(); ++i) names.push_back('i' + std::to_string(i));
    for (int j = 0; j < select_count(); ++j) names.push_back("sel" + std::to_string(j));
    return names;
}

std::vector<bool> MergedSpec::pi_select_flags() const {
    std::vector<bool> flags(static_cast<std::size_t>(num_inputs()), false);
    flags.insert(flags.end(), static_cast<std::size_t>(select_count()), true);
    return flags;
}

}  // namespace mvf::flow
