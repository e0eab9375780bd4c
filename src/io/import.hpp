#pragma once
// Benchmark circuit frontend: BLIF / AIGER / ISCAS-85 .bench readers.
//
// The paper evaluates camouflaging on real mapped circuits; these readers
// turn standard benchmark files into the same net::Aig / tech::Netlist the
// synthesis flow produces, so an imported circuit is a first-class subject
// for camouflage injection (camo/inject.hpp) and the whole attack stack.
//
// Supported formats (dispatch in load_circuit by extension, then content):
//   BLIF   .model/.inputs/.outputs/.names with multi-cube covers,
//          don't-cares ('-') and 0-rows (off-set covers); arbitrary fanin.
//          .latch is rejected with a clear "sequential" error; .gate,
//          .subckt and other structural directives are rejected as
//          unsupported.
//   AIGER  both ascii "aag" and binary "aig" headers, symbol tables and
//          comment sections included; latches are rejected.
//   bench  INPUT/OUTPUT plus AND/NAND/OR/NOR/XOR/XNOR/NOT/BUFF (case-
//          insensitive, arbitrary fanin where the gate allows it); DFF is
//          rejected as sequential.
//
// Every reader validates the net level before building: undriven nets,
// multiply-driven nets and combinational cycles all throw io::ParseError
// (file/line; see parse_error.hpp).  There is no truth-table collapse and
// no input cap -- covers become AND/OR trees in the AIG.

#include <iosfwd>
#include <string>
#include <vector>

#include "io/parse_error.hpp"
#include "map/gate_library.hpp"
#include "map/netlist.hpp"
#include "map/tech_map.hpp"
#include "net/aig.hpp"

namespace mvf::io {

/// A parsed combinational circuit: structural AIG plus the file's port
/// names (input i = AIG PI i, output j = AIG PO j).
struct ImportedCircuit {
    std::string name;  ///< .model name / file stem; may be empty
    net::Aig aig{0};
    std::vector<std::string> input_names;
    std::vector<std::string> output_names;
};

/// Structural BLIF reader (see the header comment for the subset).
/// `filename` only labels ParseError diagnostics.
ImportedCircuit read_blif(std::istream& in, const std::string& filename = "");

/// ISCAS-ish .bench reader completing io::write_bench.
ImportedCircuit read_bench(std::istream& in, const std::string& filename = "");

/// AIGER reader: ascii "aag" and binary "aig", symbol tables honored.
/// Open the stream in binary mode for "aig" files.
ImportedCircuit read_aiger(std::istream& in, const std::string& filename = "");

/// Writes the AIG as AIGER: ascii "aag" (default) or the binary "aig"
/// delta encoding.  Round-trips through read_aiger.
void write_aiger(const net::Aig& aig, std::ostream& out, bool binary = false);

/// Opens `path` and dispatches on the extension (.blif, .bench, .aag,
/// .aig), falling back to content sniffing for anything else.  Throws
/// ParseError when the file cannot be opened or parsed.
ImportedCircuit load_circuit(const std::string& path);

/// The import-to-flow bridge: technology-maps the circuit onto the cache's
/// library (the same mapper the synthesis flow uses), preserving the file's
/// input names.  The result is what camo::inject camouflages.
tech::Netlist import_netlist(const ImportedCircuit& circuit,
                             const tech::MatchCache& cache,
                             const tech::TechMapParams& params = {});

}  // namespace mvf::io
